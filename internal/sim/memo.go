package sim

import "sync"

// onceMemo shares work between the cells of one call: each key's value is
// computed once, by the first cell to reach it, and cells of a parallel
// fan that reach it meanwhile wait for that computation. The fleet sweep
// shares replays through one, the adaptive experiment's two Sidewinder
// arms their base hub pass; each memo lives for the call that made it.
type onceMemo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*onceEntry[V]
}

func newOnceMemo[K comparable, V any]() *onceMemo[K, V] {
	return &onceMemo[K, V]{entries: make(map[K]*onceEntry[V])}
}

// onceEntry is one key's value, or the error that stopped it.
type onceEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns the value for k, running run only if no cell has.
func (m *onceMemo[K, V]) get(k K, run func() (V, error)) (V, error) {
	m.mu.Lock()
	e := m.entries[k]
	if e == nil {
		e = &onceEntry[V]{}
		m.entries[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = run() })
	return e.v, e.err
}
