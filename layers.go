package smrseek

import (
	"smrseek/internal/gc"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

// GCPolicy selects the cleaning victim heuristic for NewGCLayer.
type GCPolicy = gc.Policy

// Cleaning policies.
const (
	// Greedy picks the victim segment with the least live data.
	Greedy = gc.Greedy
	// CostBenefit picks by the LFS age*(1-u)/(1+u) ratio.
	CostBenefit = gc.CostBenefit
)

// GCConfig sizes the finite-log cleaning layer.
type GCConfig = gc.Config

// GCLayer is the finite log-structured layer with segment cleaning.
type GCLayer = gc.Layer

// NewGCLayer builds a finite log-structured translation layer whose
// cleaning I/O is charged to the simulation — the overhead the paper's
// infinite-disk model excludes.
func NewGCLayer(cfg GCConfig) (*GCLayer, error) { return gc.New(cfg) }

// WriteFootprint returns the number of distinct sectors the trace ever
// writes — the live-data upper bound used to size finite logs.
func WriteFootprint(recs []Record) int64 { return trace.WriteFootprint(recs) }

// MaxLBA returns the highest end LBA across the records.
func MaxLBA(recs []Record) int64 { return trace.MaxLBA(recs) }

// FitWorkload estimates a synthetic workload Profile from an observed
// trace — the substitution DESIGN.md §3 applies to the paper's traces,
// automated for any trace a user has. The fitted profile regenerates a
// stand-in whose seek behaviour is in the same regime as the original.
func FitWorkload(name string, recs []Record, seed uint64) (Profile, error) {
	return workload.Fit(name, recs, seed)
}
