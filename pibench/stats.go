package main

import (
	"sort"
	"time"
)

// samples is a set of latency observations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

// quantile returns the q-quantile by linear interpolation between
// closest ranks (0 for an empty set).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	frac := pos - float64(lo)
	return c[lo]*(1-frac) + c[lo+1]*frac
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// beyond reports how many observations lie strictly above the
// q-quantile: a percentile is only quoted with enough samples past it.
func (s samples) beyond(q float64) int {
	v := s.quantile(q)
	n := 0
	for _, x := range s {
		if x > v {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
