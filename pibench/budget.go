package main

import (
	"fmt"
	"math"
	"sort"
)

// layerShare is one layer's self time per operation along the blocking
// path.
type layerShare struct {
	layer  string
	selfMS float64
}

// budget is the latency budget of one operation kind of one workload:
// each layer's self time as a share of the traced end-to-end median,
// with the tracing overhead (traced minus untraced median) beside it.
type budget struct {
	workload, op   string
	n              int
	tracedMedian   float64
	untracedMedian float64
	base           string
	layers         []layerShare
}

func (b budget) print() {
	sum := 0.0
	for _, l := range b.layers {
		sum += l.selfMS
	}
	overhead := b.tracedMedian - b.untracedMedian
	fmt.Printf("budget %s/%s n=%d traced_median_ms=%.3f untraced_median_ms=%.3f overhead_ms=%.3f layers_sum_ms=%.3f accounted=%.1f%% base: %s\n",
		b.workload, b.op, b.n, b.tracedMedian, b.untracedMedian, overhead, sum, 100*ratio(sum, b.tracedMedian), b.base)
	ls := append([]layerShare(nil), b.layers...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].selfMS > ls[j].selfMS })
	for _, l := range ls {
		fmt.Printf("budget %s/%s   %-22s self_ms=%9.3f share=%5.1f%% of traced median %.3f ms\n",
			b.workload, b.op, l.layer, l.selfMS, 100*ratio(l.selfMS, b.tracedMedian), b.tracedMedian)
	}
}

// servingBudget turns per-request breakdowns of one operation kind into
// a budget. Layer self times are averaged over the requests whose
// end-to-end time lies in the 40-60% band around the median, so they
// describe the median request rather than the tail.
func servingBudget(workload, op string, bds []breakdown, untraced samples) (budget, []breakdown) {
	var tot samples
	for _, b := range bds {
		if b.op == op {
			tot = append(tot, b.total)
		}
	}
	lo, hi := tot.quantile(0.4), tot.quantile(0.6)
	if med := tot.median(); len(tot) > 0 && !hasBetween(tot, lo, hi) {
		// Too few requests to fill the band: use the one nearest the median.
		lo, hi = nearest(tot, med), nearest(tot, med)
	}
	sums := map[string]float64{}
	var band []breakdown
	for _, b := range bds {
		if b.op != op || b.total < lo || b.total > hi {
			continue
		}
		band = append(band, b)
		for l, v := range b.self {
			sums[l] += v
		}
	}
	n := len(band)
	bu := budget{workload: workload, op: op, n: len(tot), tracedMedian: tot.median(), untracedMedian: untraced.median(),
		base: fmt.Sprintf("traced median over %d %s requests, untraced median over %d; layer self times averaged over the %d requests in the 40-60%% band",
			len(tot), op, len(untraced), n)}
	names := make([]string, 0, len(sums))
	for l := range sums {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		bu.layers = append(bu.layers, layerShare{l, sums[l] / float64(max(n, 1))})
	}
	return bu, band
}

// carve moves part of one layer's self time into another layer: how an
// off-path estimate (engine time re-measured outside the request) is
// split out of the layer that contained it on the request path.
func (b *budget) carve(from, to string, v float64) {
	for i := range b.layers {
		if b.layers[i].layer == from {
			if v > b.layers[i].selfMS {
				v = b.layers[i].selfMS
			}
			b.layers[i].selfMS -= v
			b.layers = append(b.layers, layerShare{to, v})
			return
		}
	}
}

func hasBetween(s samples, lo, hi float64) bool {
	for _, v := range s {
		if v >= lo && v <= hi {
			return true
		}
	}
	return false
}

func nearest(s samples, x float64) float64 {
	best := s[0]
	for _, v := range s {
		if math.Abs(v-x) < math.Abs(best-x) {
			best = v
		}
	}
	return best
}
