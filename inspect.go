package dircache

import (
	"encoding/json"
	"fmt"

	"dircache/internal/audit"
	"dircache/internal/core"
	"dircache/internal/vfs"
)

// CacheIntrospection is the dentry-cache half of an Inspection: occupancy
// by dentry kind, DIR_COMPLETE coverage, and the (parent, name) hash
// table's chain distribution.
type CacheIntrospection = vfs.CacheIntrospection

// FastpathIntrospection is the fastpath half of an Inspection: per-DLHT
// occupancy, probe-length distribution and signature-collision counts,
// and per-credential PCC occupancy.
type FastpathIntrospection = core.Introspection

// DLHTIntrospection snapshots one direct lookup hash table.
type DLHTIntrospection = vfs.ChainShape

// PCCIntrospection snapshots one credential's prefix check cache.
type PCCIntrospection = core.PCCStats

// Inspection is a structural snapshot of the directory cache — what is
// cached, where, and in what shape — as opposed to CacheStats, which
// counts events. Fastpath is nil when DirectLookup is off.
type Inspection struct {
	Cache    CacheIntrospection     `json:"cache"`
	Fastpath *FastpathIntrospection `json:"fastpath,omitempty"`
}

// Inspect snapshots the cache structures. Gathered without stopping the
// world: individual numbers are exact-at-read, cross-field skew is
// possible under concurrent churn.
func (s *System) Inspect() Inspection {
	in := Inspection{Cache: s.k.Introspect()}
	if s.core != nil {
		fp := s.core.Introspect()
		in.Fastpath = &fp
	}
	return in
}

// JSON renders the inspection as an indented JSON document.
func (in Inspection) JSON() []byte {
	b, _ := json.MarshalIndent(in, "", "  ")
	return b
}

// counters flattens the snapshot into gauge metrics for the telemetry
// exporter (source "inspect" on /metrics and /metrics.json).
func (in Inspection) counters() map[string]int64 {
	out := map[string]int64{
		"dentries":       int64(in.Cache.Dentries),
		"negative":       int64(in.Cache.Negative),
		"deep_negative":  int64(in.Cache.DeepNegative),
		"alias":          int64(in.Cache.Alias),
		"unhydrated":     int64(in.Cache.Unhydrated),
		"in_lookup":      int64(in.Cache.InLookup),
		"dirs":           int64(in.Cache.Dirs),
		"complete_dirs":  int64(in.Cache.CompleteDirs),
		"pinned":         int64(in.Cache.Pinned),
		"cache_mut_seq":  int64(in.Cache.MutationSeq),
		"eviction_epoch": int64(in.Cache.EvictionEpoch),
	}
	if fp := in.Fastpath; fp != nil {
		out["epoch"] = int64(fp.Epoch)
		for i, dl := range fp.DLHTs {
			pfx := fmt.Sprintf("dlht%d_", i)
			out[pfx+"buckets"] = int64(dl.Buckets)
			out[pfx+"entries"] = int64(dl.Entries)
			out[pfx+"dead"] = int64(dl.Dead)
			out[pfx+"used_buckets"] = int64(dl.UsedBuckets)
			out[pfx+"max_chain"] = int64(dl.MaxChain)
			out[pfx+"collisions"] = int64(dl.Collisions)
		}
		var pccEntries, pccCap int64
		for _, p := range fp.PCCs {
			pccEntries += int64(p.Entries)
			pccCap += int64(p.Capacity)
		}
		out["pccs"] = int64(len(fp.PCCs))
		out["pcc_entries"] = pccEntries
		out["pcc_capacity"] = pccCap
	}
	return out
}

// AuditFinding is one invariant violation found by the auditor.
type AuditFinding = audit.Finding

// AuditReport is the outcome of one auditor pass; Valid reports whether
// the pass was race-free and can be trusted.
type AuditReport = audit.Report

// Auditor is the online invariant auditor ("dcache doctor"): it
// cross-checks the live cache structures and the coherence event journal
// against the design's invariants while the system keeps running.
type Auditor = audit.Auditor

// NewAuditor builds an auditor for this System. Safe to run continuously
// beside live workloads; see Auditor.Run, RunUntilValid, and Loop.
func (s *System) NewAuditor() *Auditor {
	if s.core != nil {
		return audit.New(s.k, s.core)
	}
	return audit.New(s.k, nil)
}

// Doctor runs one best-effort audit: up to five passes until one is
// race-free. A healthy system reports Valid == true and zero findings.
func (s *System) Doctor() AuditReport {
	return s.NewAuditor().RunUntilValid(5)
}
