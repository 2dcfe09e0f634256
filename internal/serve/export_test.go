package serve

// The request scanner, for the codec tests in package serve_test.
var ScanBatchRequest = scanBatchRequest
