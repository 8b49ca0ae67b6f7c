package sim

// Conservative windowed execution: event partitions (shards) advance window
// by window, and how many host goroutines execute a window is a separate,
// purely wall-clock choice (Kernel.SetWorkers).
//
// The algorithm generalizes YAWNS-style synchronous windowing with
// Chandy–Misra distance-based lookahead. The kernel carries laDist, the
// min-plus closure of the per-shard-pair lookahead matrix: laDist[j][i]
// lower-bounds the virtual time any causal chain starting on shard j needs
// to reach shard i (including multi-hop routes through other shards, and
// cycles back to j itself). Each window:
//
//  1. merges every shard's inbound mailbox into its heap (entries are due
//     strictly beyond the window that produced them, so clocks never
//     regress);
//  2. computes every shard's next-event time m_j, and gives each shard i its
//     own limit L_i = min_j(m_j + laDist[j][i]) - 1: the earliest instant an
//     event executed anywhere could make new work arrive at shard i. Events
//     on shard i with at <= L_i are safe to run without coordination —
//     anything influencing them from another shard would have to arrive at
//     > L_i. A shard pair with no route contributes no bound; a shard with
//     no route into it at all — the only shard of a single-shard kernel, for
//     one — runs to its cap in one window.
//  3. runs the shards whose next event falls inside their limit, horizon
//     pinned to the limit so proc fast-path advances stay inside the window.
//     With one worker — the default — the calling goroutine runs them in
//     index order: no goroutine, channel or barrier exists. With n workers
//     each worker runs its own contiguous block of shards — the caller is
//     worker 0, the rest are helper goroutines — and the workers join before
//     the next window.
//  4. re-raises a panic from the window, lowest shard id first at every
//     worker count: one worker runs shards in index order and lets the
//     first panic unwind with its stack; several workers capture panics per
//     shard and the coordinator re-raises after the join.
//
// With a uniform matrix this degenerates to (at least) the classic global
// window [m, m+la): every L_i >= m + la - 1. With distance-aware floors,
// shards whose nearest neighbors are far — ring antipodes, torus corners,
// LatencyScale-dilated fabrics — get wider windows and fewer rounds, which
// is the whole point: the paper's islands exist because hops are non-uniform,
// and the simulator's synchronization cost should follow the same structure.
//
// Why partition even on one goroutine: inside its window a shard sees only
// its own island's events, so a Proc's Advance almost always finds no other
// Proc due first and bumps the clock inline (no heap push/pop, no coroutine
// switch), and the island's heap, procs and pages stay in the host's cache
// while it runs its burst. One heap over every island forfeits both.
//
// Progress is guaranteed: the shard holding the globally-earliest event m
// has L_i >= m (every laDist entry is >= 1), so it always executes at least
// that event. Determinism needs no cross-window reasoning beyond the event
// keys: each shard executes its own events in (at, dom, seq) order, and
// events on different shards inside their respective windows are causally
// independent by the lookahead-closure argument, so neither their relative
// wall-clock order nor the goroutine that ran them can affect simulation
// state.

// runWindow executes the shard's events up to its horizon, the limit of the
// current window.
func (sh *shard) runWindow() {
	for !sh.heap.empty() && sh.heap.ev[0].at <= sh.horizon {
		sh.step()
	}
}

// computeWindow fills k.mins with every shard's next-event time, pins each
// shard's horizon to its distance-aware window limit (capped at cap), and
// collects the shards with an event inside their limit into k.runnable. None
// means the run is done: either no events remain, or every remaining event
// lies beyond the cap.
func (k *Kernel) computeWindow(cap Time) {
	n := len(k.shards)
	for i, sh := range k.shards {
		if sh.heap.empty() {
			k.mins[i] = noChannel
		} else {
			k.mins[i] = sh.heap.ev[0].at
		}
	}
	k.runnable = k.runnable[:0]
	for i, sh := range k.shards {
		if k.mins[i] == noChannel {
			continue
		}
		lim := cap
		for j := 0; j < n; j++ {
			if k.mins[j] == noChannel {
				continue
			}
			d := k.laDist[j*n+i]
			if d == noChannel {
				continue
			}
			if w := addClamp(k.mins[j], d) - 1; w < lim {
				lim = w
			}
		}
		if k.mins[i] <= lim {
			sh.horizon = lim
			k.runnable = append(k.runnable, sh)
		}
	}
}

// runWindows is the driver behind Run and RunUntil: windows until no shard
// has a runnable event at or below cap.
func (k *Kernel) runWindows(cap Time) {
	for {
		k.drainInboxes()
		k.computeWindow(cap)
		if len(k.runnable) == 0 {
			return
		}
		k.windows++
		k.wakeups += uint64(len(k.runnable))
		if k.workers > 1 {
			k.runShared()
			continue
		}
		for _, sh := range k.runnable {
			sh.runWindow()
		}
	}
}

// runShared executes the window's runnable shards on the kernel's workers
// and joins them. Every worker owns one contiguous block of shards (see
// workerOf) for the kernel's lifetime: a shard's heap, procs and pages stay
// in one host core's cache from window to window — dealing shards to
// whichever worker is free measured slower than running them all inline —
// and neighbouring shards, whose structures are allocated back to back and
// would false-share, land on one worker. Worker 0 is the calling goroutine;
// the others are helper goroutines, started on first use and woken only for
// windows in which one of their shards is runnable. Shards that panicked
// re-raise here, lowest shard id first, so failures surface
// deterministically.
func (k *Kernel) runShared() {
	for len(k.start) < k.workers-1 {
		// One token per window at most: the coordinator never waits for a
		// helper to wake before running its own shards.
		c := make(chan struct{}, 1)
		k.start = append(k.start, c)
		k.exited.Add(1)
		go k.serve(len(k.start), c)
	}
	var woken uint64 // bit w: worker w has a runnable shard this window
	for _, sh := range k.runnable {
		woken |= 1 << k.workerOf(sh)
	}
	for w := 1; w < k.workers; w++ {
		if woken&(1<<w) != 0 {
			k.joined.Add(1)
			k.start[w-1] <- struct{}{}
		}
	}
	k.runShare(0)
	k.joined.Wait()
	for _, sh := range k.runnable {
		if r := sh.panicked; r != nil {
			sh.panicked = nil
			panic(r)
		}
	}
}

// workerOf returns the worker that owns sh: shards are split into
// k.workers contiguous blocks of near-equal size.
func (k *Kernel) workerOf(sh *shard) int { return sh.id * k.workers / len(k.shards) }

// serve is helper w's goroutine body: its share of one window per token,
// until Close closes the channel.
func (k *Kernel) serve(w int, start <-chan struct{}) {
	defer k.exited.Done()
	for range start {
		k.runShare(w)
		k.joined.Done()
	}
}

// runShare runs worker w's runnable shards. A panic inside a shard's window
// is captured so the join always completes; the coordinator re-raises it.
func (k *Kernel) runShare(w int) {
	for _, sh := range k.runnable {
		if k.workerOf(sh) == w {
			sh.runCaught()
		}
	}
}

func (sh *shard) runCaught() {
	defer func() {
		if r := recover(); r != nil {
			sh.panicked = r
		}
	}()
	sh.runWindow()
}

// drainInboxes folds every shard's inbound mailbox into its heap. Only
// called between windows (no worker running), but the mailbox mutex is still
// taken: a Go memory-model happens-before edge with the sending shard's
// last window is established by the workers' join, and the lock keeps -race
// provably clean if a send raced the final window edge.
func (k *Kernel) drainInboxes() {
	for _, sh := range k.shards {
		sh.inMu.Lock()
		for _, e := range sh.inbox {
			sh.heap.push(e)
		}
		sh.inbox = sh.inbox[:0]
		sh.inMu.Unlock()
	}
}
