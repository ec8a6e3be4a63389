package stream

// NewRegistered constructs one accumulator of every registered type, keyed
// exactly like RegisteredAccumulators. The tests use it to run the
// merge-law suite over every implementation without hand-maintaining a
// second list.
func NewRegistered(cfg Config) map[string]Accumulator {
	return map[string]Accumulator{
		"Tables":  NewTables(cfg),
		"Collect": NewCollect(cfg),
	}
}
