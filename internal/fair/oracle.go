package fair

// Oracles: state the lifecycle tests assert drains to zero. No scheduling
// path reads it; DESIGN.md §18 keeps it here by name.

// Backlog returns the tenant's stamped-but-undispatched request count.
func (w *WFQ) Backlog(tenant string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if t := w.tenants[tenant]; t != nil {
		return t.backlog
	}
	return 0
}
