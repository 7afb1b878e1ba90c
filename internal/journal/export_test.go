package journal

// Test helpers shared with the external tests in this directory (package
// journal_test), which go through stl, an importer of this package.
var (
	WritePair = writePair
	DirBytes  = dirBytes
)
