// Package fabric shards a simulation campaign across processes and
// machines: a queue-owning dispatcher splits a campaign into per-cell
// shard jobs with an explicit lifecycle (queued → booked → executing →
// completed/failed), and worker daemons pull work when they have
// capacity, execute cells through the ordinary experiments.Run path, and
// stream CellRecord results back over HTTP/JSON.
//
// The design follows the paper's decoupling one level up: just as the
// External Scheduler decides *where a job runs* independently of the
// Dataset Scheduler deciding *where data lives*, the dispatcher decides
// *which process runs a cell* independently of how that cell simulates.
// Because every simulation is a deterministic single-threaded event loop,
// a shard's CellRecord is byte-identical no matter which worker produced
// it — so the dispatcher's merge step only has to reorder streamed
// records into canonical campaign order to reproduce, byte for byte, the
// JSONL stream a single-process `gridsweep` run would have written.
//
// Delivery is at-least-once: workers retry uploads, leases expire and
// shards requeue when a worker dies, so the dispatcher dedupes results by
// cell key (first completed record wins; duplicates are counted and
// dropped). A journal of completed shards makes a partial campaign
// resumable across dispatcher restarts.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"chicsim/internal/core"
	"chicsim/internal/experiments"
)

// CampaignSpec is the unit of submission: everything a worker needs to
// reproduce any shard of the campaign. It deliberately mirrors
// experiments.Campaign minus the process-local hooks (progress, metrics,
// callbacks), which stay on whichever process wants them.
type CampaignSpec struct {
	Name  string             `json:"name,omitempty"`
	Base  core.Config        `json:"base"`
	Cells []experiments.Cell `json:"cells"`
	Seeds []uint64           `json:"seeds"`
}

// Validate checks the spec is runnable enough to shard: it has cells and
// seeds, and every cell names a known ES and DS and a parameter the
// sweeps define. Specs cross the trust boundary twice, at submission and
// when a journal is resumed.
func (s *CampaignSpec) Validate() error {
	if len(s.Cells) == 0 {
		return fmt.Errorf("fabric: campaign has no cells")
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("fabric: campaign has no seeds")
	}
	for _, c := range s.Cells {
		if !slices.Contains(core.ExternalNames(), c.ES) {
			return fmt.Errorf("fabric: cell %v: unknown ES %q", c, c.ES)
		}
		if !slices.Contains(core.DatasetNames(), c.DS) {
			return fmt.Errorf("fabric: cell %v: unknown DS %q", c, c.DS)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("fabric: %w", err)
		}
	}
	return nil
}

// ID derives a stable campaign identifier from the spec's JSON encoding,
// so resubmitting an identical campaign (e.g. `gridsweep -dispatch`
// rerun after an interruption) attaches to the in-progress one instead
// of starting over.
func (s *CampaignSpec) ID() string {
	js, err := json.Marshal(s)
	if err != nil {
		// core.Config and experiments.Cell marshal cleanly; a failure here
		// means a new non-marshalable field slipped in, which Submit's
		// round-trip would also reject. Fall back to a degenerate id.
		return "invalid"
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:6])
}

// ShardState is a shard's position in the dispatcher lifecycle.
type ShardState int

// The lifecycle: Queued shards wait in the dispatcher's queue; Booked
// shards are leased to a worker that has not yet reported execution;
// Executing shards have heartbeats; Completed shards have a merged-in
// record; Failed shards exhausted their attempts (or completed with a
// simulation error). Booked and Executing shards whose lease expires go
// back to Queued.
const (
	Queued ShardState = iota
	Booked
	Executing
	Completed
	Failed
)

func (s ShardState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Booked:
		return "booked"
	case Executing:
		return "executing"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("ShardState(%d)", int(s))
	}
}

// Shard is one unit of bookable work: a single campaign cell with every
// seed replication. One cell per shard matches the JSONL wire format —
// each shard produces exactly one CellRecord, and cell identity is the
// dedupe key for at-least-once delivery.
type Shard struct {
	Index int              `json:"index"`
	Cell  experiments.Cell `json:"cell"`
}

// Wire messages. All endpoints speak JSON over POST (mutations) or GET
// (reads); error responses are {"error": "..."} with a non-2xx status.

// RegisterRequest announces a worker and its capacity attributes.
type RegisterRequest struct {
	Name     string `json:"name"`
	Host     string `json:"host,omitempty"`
	PID      int    `json:"pid,omitempty"`
	Capacity int    `json:"capacity"`
}

// RegisterResponse assigns the worker its ID and the lease duration it
// must heartbeat within.
type RegisterResponse struct {
	WorkerID     string  `json:"worker_id"`
	LeaseSeconds float64 `json:"lease_s"`
}

// BookRequest asks for up to Max shards under a lease.
type BookRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
}

// BookResponse grants zero or more shards. Done reports that every shard
// of the current campaign is terminal (the merged stream exists), which
// tells one-shot workers they can exit. BackoffSeconds hints how long to
// wait before asking again when no shards were granted.
type BookResponse struct {
	CampaignID     string  `json:"campaign_id,omitempty"`
	Shards         []Shard `json:"shards,omitempty"`
	LeaseSeconds   float64 `json:"lease_s,omitempty"`
	Done           bool    `json:"done,omitempty"`
	BackoffSeconds float64 `json:"backoff_s,omitempty"`
}

// HeartbeatRequest extends the lease on the shards a worker is running.
type HeartbeatRequest struct {
	WorkerID  string `json:"worker_id"`
	Executing []int  `json:"executing,omitempty"`
}

// HeartbeatResponse lists shards the worker no longer owns (lease
// expired and requeued, possibly already completed elsewhere); the
// worker should stop reporting them and may discard their results.
type HeartbeatResponse struct {
	Lost []int `json:"lost,omitempty"`
}

// ResultRequest uploads one completed shard's record.
type ResultRequest struct {
	WorkerID   string                 `json:"worker_id"`
	CampaignID string                 `json:"campaign_id"`
	Shard      int                    `json:"shard"`
	Record     experiments.CellRecord `json:"record"`
}

// ResultResponse acknowledges an upload. Duplicate means the shard was
// already terminal (the upload was dropped — at-least-once dedupe);
// Stale means the campaign ID no longer matches.
type ResultResponse struct {
	Duplicate bool `json:"duplicate,omitempty"`
	Stale     bool `json:"stale,omitempty"`
}

// SubmitResponse acknowledges a campaign submission. Resumed means an
// identical campaign was already loaded (from an earlier submission or
// the journal) and the caller attached to it.
type SubmitResponse struct {
	CampaignID string `json:"campaign_id"`
	Resumed    bool   `json:"resumed,omitempty"`
}

// CampaignDoc is the GET /api/campaign payload.
type CampaignDoc struct {
	CampaignID string       `json:"campaign_id"`
	Spec       CampaignSpec `json:"spec"`
}

// ShardStatus is one shard's row in the state document.
type ShardStatus struct {
	Index    int    `json:"index"`
	Cell     string `json:"cell"`
	State    string `json:"state"`
	Worker   string `json:"worker,omitempty"`
	Host     string `json:"host,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
}

// WorkerStatus is one worker's row in the state document.
type WorkerStatus struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Host       string    `json:"host,omitempty"`
	Capacity   int       `json:"capacity"`
	LastSeen   time.Time `json:"last_seen"`
	ShardsDone int       `json:"shards_done"`
}

// StateDoc is the GET /api/state payload: the whole fabric at a glance.
type StateDoc struct {
	CampaignID string         `json:"campaign_id,omitempty"`
	Phase      string         `json:"phase"` // idle, running, merged
	Counts     map[string]int `json:"counts,omitempty"`
	Duplicates int            `json:"duplicate_results,omitempty"`
	Requeues   int            `json:"requeues,omitempty"`
	Shards     []ShardStatus  `json:"shards,omitempty"`
	Workers    []WorkerStatus `json:"workers,omitempty"`
}
