package storage

import (
	"islands/internal/exec"
	"islands/internal/sim"
)

// Disk models a storage device as a multi-server FIFO resource with fixed
// per-operation service times.
type Disk struct {
	res          *sim.Resource
	readService  sim.Time
	writeService sim.Time

	Reads, Writes uint64
}

// MMapDisk models the paper's default I/O setup: data and log files on
// memory-mapped "disks", so an I/O is little more than a page copy. High
// parallelism, microsecond service.
func MMapDisk() *Disk {
	return &Disk{res: sim.NewResource(16), readService: 4 * sim.Microsecond, writeService: 6 * sim.Microsecond}
}

// HDDArray models the two 10kRPM SAS drives in RAID-0 used in Section 7.4:
// two channels, ~5.5 ms random read (seek + half rotation), slightly cheaper
// writes thanks to controller caching.
func HDDArray() *Disk {
	return &Disk{res: sim.NewResource(2), readService: 5500 * sim.Microsecond, writeService: 2500 * sim.Microsecond}
}

// Read charges one page-read I/O to ctx (billed to the current bucket).
func (d *Disk) Read(ctx *exec.Ctx) {
	d.Reads++
	ctx.UseResource(d.res, d.readService)
}

// Write charges one page-write I/O to ctx.
func (d *Disk) Write(ctx *exec.Ctx) {
	d.Writes++
	ctx.UseResource(d.res, d.writeService)
}
