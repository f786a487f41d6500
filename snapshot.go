package streamgraph

import (
	"io"

	"streamgraph/internal/persist"
)

// SaveSnapshot checkpoints a running engine to w: the windowed data
// graph, every tracked partial match and the lazy-search state. Deferred
// lazy work is flushed first; any complete matches it produces are
// returned so the caller can report them before shutting down.
//
// A snapshot taken mid-stream and restored with LoadSnapshot continues
// the query without losing any in-window partial match.
func SaveSnapshot(w io.Writer, e *Engine) (flushed []Match, err error) {
	raw, err := persist.Save(w, e.inner)
	if err != nil {
		return nil, err
	}
	return e.resolveAll(raw), nil
}

// LoadSnapshot restores an engine previously saved with SaveSnapshot.
// The restored engine uses the decomposition pinned at save time; it
// does not need the original Statistics.
func LoadSnapshot(r io.Reader) (*Engine, error) {
	inner, err := persist.Load(r)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner, q: inner.Query()}, nil
}
