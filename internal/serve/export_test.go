package serve

// The scanners, for the codec tests in package serve_test.
var (
	ScanBatchRequest = scanBatchRequest
	ScanBatchAnswer  = scanBatchAnswer
)
