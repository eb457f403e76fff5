package main

import (
	"math"
	"slices"
	"strconv"
)

// dist summarizes one series: its median and its tail with the sample
// count behind them. Tail is p99, or the highest percentile that still
// leaves at least ten samples beyond it; TailQ says which.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail"`
	TailQ float64 `json:"tail_q"`
}

// summarize sorts v in place and summarizes it.
func summarize[T float32 | float64](v []T) dist {
	n := len(v)
	if n == 0 {
		return dist{}
	}
	slices.Sort(v)
	q := 0.99
	if float64(n)*(1-q) < 10 {
		// Fewer than 1000 samples: back off until ten lie beyond.
		q = math.Max(0.5, 1-10/float64(n))
	}
	return dist{N: n, P50: widen(quantile(v, 0.5)), Tail: widen(quantile(v, q)), TailQ: q}
}

// widen converts to float64 without inventing digits: a float32 keeps
// the shortest decimal that identifies it.
func widen[T float32 | float64](v T) float64 {
	if f, ok := any(v).(float32); ok {
		w, _ := strconv.ParseFloat(strconv.FormatFloat(float64(f), 'g', -1, 32), 64)
		return w
	}
	return float64(v)
}

// quantile is the nearest-rank quantile of sorted s.
func quantile[T float32 | float64](s []T, q float64) T {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the nearest-rank median of v, leaving v unchanged.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return summarize(slices.Clone(v)).P50
}

// ratio is hits over hits plus misses, 0 when there were neither.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}
