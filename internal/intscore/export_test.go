package intscore

// KernelNames lists the bit-plane kernels this host runs, the pure-Go one
// first and the dispatched one last.
func KernelNames() []string {
	var names []string
	for _, k := range hostKernels() {
		names = append(names, k.name)
	}
	return names
}

// UseKernel makes the named host kernel the one every bit-plane score
// runs and returns a function restoring the previous one. Tests that call
// it must not run in parallel.
func UseKernel(name string) (restore func()) {
	prev := kern
	for _, k := range hostKernels() {
		if k.name == name {
			kern = k
			return func() { kern = prev }
		}
	}
	panic("intscore: no kernel " + name + " on this host")
}
