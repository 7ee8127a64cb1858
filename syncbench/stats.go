package main

import "stacksync/internal/metrics"

// tailPercentile is the highest of the usual reporting percentiles that
// still has at least ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// windowMin is the fewest samples a latency window holds; its tail is
// then p95 (ten samples beyond it).
const windowMin = 200

// latency summarises per-op latencies given in due order. The samples are
// cut into consecutive windows of at least windowMin (one window when there
// are fewer); each window gives its median and its tail percentile, and the
// summary is the median of each across windows, so one stalled window does
// not decide a run.
type latency struct {
	P50     float64   `json:"p50_ms"`
	Tail    float64   `json:"tail_ms"`
	TailP   float64   `json:"tail_percentile"`
	Samples int       `json:"samples"`
	P50s    []float64 `json:"window_p50_ms"`
	Tails   []float64 `json:"window_tail_ms"`
	// Over all samples at once, for reference.
	AllP50   float64 `json:"all_p50_ms"`
	AllTail  float64 `json:"all_tail_ms"`
	AllTailP float64 `json:"all_tail_percentile"`
}

func summarize(dueOrder []float64) latency {
	n := len(dueOrder)
	w := n / windowMin
	if w < 1 {
		w = 1
	}
	if w > 10 {
		w = 10
	}
	l := latency{Samples: n, TailP: tailPercentile(n / w)}
	for i := 0; i < w; i++ {
		win := dueOrder[i*n/w : (i+1)*n/w]
		l.P50s = append(l.P50s, metrics.Percentile(win, 0.5))
		l.Tails = append(l.Tails, metrics.Percentile(win, l.TailP/100))
	}
	l.P50, l.Tail = metrics.Percentile(l.P50s, 0.5), metrics.Percentile(l.Tails, 0.5)
	l.AllTailP = tailPercentile(n)
	l.AllP50, l.AllTail = metrics.Percentile(dueOrder, 0.5), metrics.Percentile(dueOrder, l.AllTailP/100)
	return l
}
