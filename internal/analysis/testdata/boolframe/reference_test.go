package boolframetest

// This file exercises the test-file exemption: the loader reads only
// non-test files, so this file is full of []bool and produces no findings.

type refFrame []bool

func refRun(w int) refFrame {
	return make([]bool, w)
}
