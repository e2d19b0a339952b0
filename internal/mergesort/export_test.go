package mergesort

// The internals the tests reach. The tests are package mergesort_test,
// so that they can drive the paper kernel (internal/mergesort/paper,
// which imports this package) beside the production one.
var (
	RadixSort   = radixSort
	RadixChunks = radixChunks
	KeyAtRank   = keyAtRank
)

const (
	MinChunkRows    = minChunkRows
	PackMaxBits     = packMaxBits
	MergeCheckEvery = mergeCheckEvery
)
