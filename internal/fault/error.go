package fault

import (
	"errors"
	"fmt"
)

// ErrResourceExhausted is the sentinel every typed exhaustion error
// matches via errors.Is. Facade callers branch on it:
//
//	if err := th.Try(func() { stack.Push(th, v) }); errors.Is(err, fault.ErrResourceExhausted) {
//	    // back off and retry, or shed the request
//	}
var ErrResourceExhausted = errors.New("resource exhausted")

// ResourceError is the typed value the substrate's allocation paths
// panic with when a fixed-capacity resource (the node arena) is
// exhausted. It is thrown only from init-phase code — before
// any shared-memory publish — so recovering it (core's Thread.Try)
// leaves every shared structure consistent. It wraps
// ErrResourceExhausted for errors.Is matching.
type ResourceError struct {
	// Resource names the exhausted store, e.g. "arena: node store".
	Resource string
	// Capacity is the configured limit that was hit.
	Capacity uint64
	// Hint names the Config knob that raises the limit.
	Hint string
}

// Error implements error; the message preserves the pre-typed panic
// text (capacity and config hint) so operators' log greps keep working.
func (e *ResourceError) Error() string {
	return fmt.Sprintf("%s exhausted (capacity %d); configure a larger %s", e.Resource, e.Capacity, e.Hint)
}

// Unwrap makes errors.Is(e, ErrResourceExhausted) true.
func (e *ResourceError) Unwrap() error { return ErrResourceExhausted }

// AsResourceError extracts a *ResourceError from a recovered panic
// value, or returns nil if the panic is anything else (and must be
// re-thrown by the recovering frame).
func AsResourceError(v any) *ResourceError {
	if e, ok := v.(*ResourceError); ok {
		return e
	}
	return nil
}
