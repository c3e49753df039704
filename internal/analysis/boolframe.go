package analysis

import (
	"go/ast"
	"go/types"
)

// boolFramePackages are the packages on the frame observation path, where
// a []bool is overwhelmingly likely to be a channel frame buffer. The rest
// of the module (bitset's conversion helpers, workload configs, ...) is out
// of scope.
var boolFramePackages = map[string]bool{
	".":                   true,
	"internal/channel":    true,
	"internal/core":       true,
	"internal/estimators": true,
	"internal/experiment": true,
	"internal/fleet":      true,
	"internal/missing":    true,
}

// BoolFrame guards the word-packed frame refactor: channel frames are
// bitset-backed BitVecs, and new []bool buffers on the observation path
// reintroduce the slow byte-per-slot representation the refactor removed.
// It reports every []bool type expression in frame-path packages.
//
// The pre-packing []bool reference implementation lives in
// internal/channel/reference_test.go, which the loader never reads (it
// loads non-test files only). Deliberate uses in non-test files
// (conversion bridges, non-frame flag slices) are suppressed per line with
// //lint:allow boolframe <reason>.
var BoolFrame = &Analyzer{
	Name: "boolframe",
	Doc: "forbid new []bool frame buffers on the channel observation path; " +
		"frames are word-packed (channel.BitVec over internal/bitset), and byte-per-slot buffers undo that",
	AppliesTo: func(rel string) bool { return boolFramePackages[rel] },
	Run:       runBoolFrame,
}

func runBoolFrame(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			at, ok := n.(*ast.ArrayType)
			if !ok || at.Len != nil {
				return true
			}
			if elt := pass.Info.TypeOf(at.Elt); elt == nil || !types.Identical(elt, types.Typ[types.Bool]) {
				return true
			}
			pass.Reportf(at.Pos(),
				"[]bool on the frame observation path: frames are word-packed (channel.BitVec / internal/bitset); a deliberate non-frame or bridge use needs a //lint:allow boolframe comment")
			return false // don't re-report nested [][]bool elements
		})
	}
	return nil
}
