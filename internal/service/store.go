package service

// ResultStore is the persistent second tier under the in-memory LRU,
// satisfied by *resultstore.Store. Keys are canonical scenario hashes;
// values round-trip through JSON, which preserves float64 bits exactly, so
// a stored Result is bit-identical to the evaluation that produced it.
type ResultStore interface {
	// Get unmarshals the stored value into value, reporting existence.
	Get(key string, value any) (bool, error)
	// Put durably stores value, superseding any previous record.
	Put(key string, value any) error
}

// storeGet reads a Result from the persistent tier; absent store, a miss,
// or a read error (logged, never fatal — the job just re-evaluates) all
// report false.
func (m *Manager) storeGet(hash string) (*Result, bool) {
	if m.cfg.Store == nil {
		return nil, false
	}
	var res Result
	ok, err := m.cfg.Store.Get(hash, &res)
	if err != nil {
		m.cfg.Logf("service: persistent store read for %s failed: %v", hash, err)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	return &res, true
}

// storePut writes a finished Result through to the persistent tier.
// Errors are logged, not returned: the result is already in memory and
// served; durability degrades, correctness does not.
func (m *Manager) storePut(hash string, res *Result) {
	if m.cfg.Store == nil {
		return
	}
	if err := m.cfg.Store.Put(hash, res); err != nil {
		m.cfg.Logf("service: persistent store write for %s failed: %v", hash, err)
	}
}
