package core

import (
	"fmt"

	"chicsim/internal/job"
	"chicsim/internal/metrics"
	"chicsim/internal/netsim"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
	"chicsim/internal/trace"
)

// flowKind classifies a transfer by what its completion maintains, which
// is exactly what an abort must clean up instead.
type flowKind uint8

const (
	fetchFlow  flowKind = iota // job-driven input fetch
	pushFlow                   // DS replica push (source copy pinned)
	outputFlow                 // job-output shipment
)

// transferKinds gives each kind its trace events and traffic class.
var transferKinds = [...]struct {
	start, end, abort trace.Kind
	traffic           metrics.TransferPurpose
}{
	fetchFlow:  {trace.FetchStart, trace.FetchEnd, trace.TransferAbort, metrics.FetchTransfer},
	pushFlow:   {trace.ReplPush, trace.ReplArrive, trace.ReplAbort, metrics.ReplicationTransfer},
	outputFlow: {trace.OutputStart, trace.OutputEnd, trace.TransferAbort, metrics.OutputTransfer},
}

// transfer is one in-flight fetch, push or output shipment. Records are
// pooled: the fn closure is built once per record and captures only the
// record, which returns to the pool when its flow finishes or aborts.
// On faulted runs the live records are also indexed by flow id, so
// faults can pick and kill them.
type transfer struct {
	s        *Simulation
	kind     flowKind
	file     storage.FileID // -1 for outputs
	job      job.ID         // fetch requester or shipping job; -1 for pushes
	src, dst topology.SiteID
	size     float64
	done     func() // fetches: the destination site's arrival callback
	flow     *netsim.Flow
	fn       func(*netsim.Flow)
}

// startTransfer traces a transfer's start and puts its flow on the
// network. A transfer is traced and counted as traffic only between two
// different sites.
func (s *Simulation) startTransfer(kind flowKind, f storage.FileID, j job.ID, src, dst topology.SiteID, size float64, done func()) {
	var t *transfer
	if n := len(s.transferPool); n > 0 {
		t = s.transferPool[n-1]
		s.transferPool[n-1] = nil
		s.transferPool = s.transferPool[:n-1]
	} else {
		t = &transfer{s: s}
		t.fn = t.finish
	}
	t.kind, t.file, t.job, t.src, t.dst, t.size, t.done = kind, f, j, src, dst, size, done
	t.record(transferKinds[kind].start, 0)
	t.flow = s.net.Transfer(src, dst, size, t.fn)
	if s.liveFlows != nil {
		s.liveFlows[t.flow.ID] = t
	}
}

// record traces one of t's events. Pushes name no job and output starts
// and ends no file; an output's abort names file -1 to tell it from a
// fetch's.
func (t *transfer) record(k trace.Kind, bytes float64) {
	if t.src == t.dst {
		return
	}
	e := trace.Event{
		T: t.s.eng.Now(), Kind: k,
		Job: int(t.job), File: int(t.file), Src: int(t.src), Dst: int(t.dst), Bytes: bytes,
	}
	if t.kind == pushFlow {
		e.Job = 0
	} else if t.kind == outputFlow && k != trace.TransferAbort {
		e.File = 0
	}
	t.s.rec.Record(e)
}

// release returns t to the pool; the caller has copied what it needs.
func (t *transfer) release() {
	t.done, t.flow = nil, nil
	t.s.transferPool = append(t.s.transferPool, t)
}

// finish completes a delivered transfer. The record is released before
// the kind's completion runs, so a fetch the arrival cascades into can
// reuse it.
func (t *transfer) finish(fl *netsim.Flow) {
	s, kind, f, src, dst, size, done := t.s, t.kind, t.file, t.src, t.dst, t.size, t.done
	if s.liveFlows != nil {
		delete(s.liveFlows, fl.ID)
	}
	if src != dst {
		s.collector.Transfer(transferKinds[kind].traffic, size)
		t.record(transferKinds[kind].end, size)
	}
	t.release()
	switch kind {
	case fetchFlow:
		done()
	case pushFlow:
		delete(s.pushesInFlight, pushKey{f, dst})
		if err := s.sites[src].Store().Unpin(f); err == nil {
			s.sites[src].Store().Touch(f)
		}
		s.sites[dst].ReceiveReplica(f, size)
	}
}

// abort traces t's abort, kills its flow and repairs the bookkeeping its
// completion would have done: a killed push unpins its source copy and
// clears its in-flight marker. The explicit-abort fault and a site crash
// both come here, so every killed transfer has its abort event.
func (t *transfer) abort() {
	s, kind, f, src, dst := t.s, t.kind, t.file, t.src, t.dst
	t.record(transferKinds[kind].abort, 0)
	delete(s.liveFlows, t.flow.ID)
	s.net.Cancel(t.flow)
	t.release()
	if kind == pushFlow {
		delete(s.pushesInFlight, pushKey{f, dst})
		if err := s.sites[src].Store().Unpin(f); err != nil {
			panic(fmt.Sprintf("core: aborting push of file %d from site %d: %v", f, src, err))
		}
	}
}
