package sm

// Test kernels shared with the external sm_test package.
var (
	VecAddKernel      = vecAddKernel
	ContainmentKernel = containmentKernel
)
