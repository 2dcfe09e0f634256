package engine

import "fmt"

// UnknownSynopsisError reports a lookup of a synopsis name that is not
// (or no longer) registered. Every layer that resolves synopsis names —
// the engine, the serving snapshots, the facade — returns this one type,
// so callers branch with errors.As instead of matching message shapes.
type UnknownSynopsisError struct {
	// Scope names the layer that failed the lookup ("engine", "serve").
	Scope string
	// Name is the synopsis name that failed to resolve.
	Name string
}

func (e *UnknownSynopsisError) Error() string {
	return fmt.Sprintf("%s: no synopsis named %q", e.Scope, e.Name)
}

// UnknownMetricError reports an unparseable metric name. It is the typed
// counterpart of UnknownSynopsisError for the other identifier queries
// carry, giving the two error paths one shape.
type UnknownMetricError struct {
	// Scope names the layer that failed the parse ("engine", "serve").
	Scope string
	// Name is the metric string that failed to parse.
	Name string
}

func (e *UnknownMetricError) Error() string {
	return fmt.Sprintf("%s: unknown metric %q", e.Scope, e.Name)
}

// OverflowError refuses a mutation that would take the record total or
// the SUM total (Σ value·count) above MaxTotal. The refused mutation is
// not applied, and a durable engine does not log it.
type OverflowError struct {
	// Total names the total the mutation would overflow: "record" or "SUM".
	Total string
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("engine: mutation would take the %s total above 2^53", e.Total)
}
