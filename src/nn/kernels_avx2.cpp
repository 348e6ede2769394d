// The nn kernels of nn/kernels.cpp, compiled a second time into nn::avx2.
// CMake builds this file with -mavx2 -ffp-contract=off and without -mfma, so
// the lanes widen from 4 to 8 while every product and sum is still rounded
// on its own (DESIGN.md §18).
#define ADASUM_NN_AVX2
#include "nn/kernels.cpp"
