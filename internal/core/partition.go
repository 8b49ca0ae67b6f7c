// Package core implements OLTP Islands: hardware-topology- and
// workload-aware shared-nothing deployments (Section 4 of the paper). It
// turns a machine description and an instance count into a running
// deployment — range-partitioned engine instances placed on islands of
// cores, wired with an IPC network and a distributed-transaction router —
// and measures throughput, latency breakdowns, and microarchitectural
// proxies over simulated time windows.
package core

import (
	"fmt"

	"islands/internal/engine"
	"islands/internal/storage"
)

// RangePartitioner splits every table's key space into contiguous ranges,
// one per instance (the paper range-partitions all data across instances).
// The last instance absorbs the remainder when rows do not divide evenly.
// Tables are looked up by id in slices bounded by storage.MaxTableID; a
// per-instance count of 0 marks an id no table was declared under.
type RangePartitioner struct {
	n    int
	rows []int64 // by TableID: global row count
	per  []int64 // by TableID: rows of every instance but the last
}

// NewRangePartitioner builds a partitioner for n instances over the given
// tables (table id -> global row count). Every table needs at least one row
// per instance.
func NewRangePartitioner(n int, rows map[storage.TableID]int64) *RangePartitioner {
	if n < 1 {
		panic("core: partitioner needs >= 1 instance")
	}
	p := &RangePartitioner{n: n}
	for id, r := range rows {
		if id < 0 || id > storage.MaxTableID {
			panic(fmt.Sprintf("core: table id %d outside [0, %d]", id, storage.MaxTableID))
		}
		if r < int64(n) {
			panic(fmt.Sprintf("core: table %d has %d rows, fewer than its %d instances", id, r, n))
		}
		for int(id) >= len(p.per) {
			p.rows, p.per = append(p.rows, 0), append(p.per, 0)
		}
		p.rows[id], p.per[id] = r, r/int64(n)
	}
	return p
}

// perOf returns table's per-instance row count; op names the caller in the
// panic on a table the partitioner was not built with.
func (p *RangePartitioner) perOf(op string, table storage.TableID) int64 {
	if uint(table) >= uint(len(p.per)) || p.per[table] == 0 {
		panic(fmt.Sprintf("core: %s on undeclared table %d", op, table))
	}
	return p.per[table]
}

// Locate returns the owning instance and local key for a global key.
func (p *RangePartitioner) Locate(table storage.TableID, key int64) (engine.InstanceID, int64) {
	per := p.perOf("Locate", table)
	iid := key / per
	if iid >= int64(p.n) {
		iid = int64(p.n) - 1
	}
	return engine.InstanceID(iid), key - iid*per
}

// Instances returns the number of instances.
func (p *RangePartitioner) Instances() int { return p.n }

// LocalRows returns how many rows of a table instance i holds.
func (p *RangePartitioner) LocalRows(table storage.TableID, i int) int64 {
	per := p.perOf("LocalRows", table)
	if i == p.n-1 {
		return p.rows[table] - per*int64(p.n-1)
	}
	return per
}

// Range returns the global key range [base, base+rows) owned by instance i,
// satisfying workload.PartitionInfo.
func (p *RangePartitioner) Range(table storage.TableID, i int) (base, rows int64) {
	return p.perOf("Range", table) * int64(i), p.LocalRows(table, i)
}
