package sched

// RunOnline simulates a scheduler over fixed slot times: at each slot, the
// alive pending requests are offered to the scheduler and the chosen ones
// leave the pool. It returns the total utility achieved — the ALG side of
// Theorem 5.1's ALG ≥ α·OPT.
func RunOnline(s Scheduler, requests []*Request, slotTimes []float64, B, L int) float64 {
	pool := append([]*Request(nil), requests...)
	var total float64
	for _, now := range slotTimes {
		alive, _, future := Expire(pool, now)
		dec := s.Schedule(now, alive, B, L)
		total += dec.Utility()
		chosen := make(map[int64]bool)
		for _, r := range dec.Chosen() {
			chosen[r.ID] = true
		}
		var next []*Request
		for _, r := range alive {
			if !chosen[r.ID] {
				next = append(next, r)
			}
		}
		pool = append(next, future...)
	}
	return total
}
