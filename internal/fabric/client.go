package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client speaks the dispatcher's HTTP/JSON protocol. The zero value is
// not usable; set BaseURL (e.g. "http://127.0.0.1:7171").
type Client struct {
	BaseURL    string
	HTTPClient *http.Client // nil: a client with a 30 s timeout
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) url(path string) string {
	base := c.BaseURL
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimSuffix(base, "/") + path
}

// CheckBaseURL rejects a dispatcher base URL no request can be built
// on: one that does not parse, or names no http(s) host. A well-formed
// URL passes whether or not anything listens there.
func CheckBaseURL(base string) error {
	u, err := url.Parse((&Client{BaseURL: base}).url(""))
	if err != nil {
		return err
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("dispatcher URL %q: want http://host:port", base)
	}
	return nil
}

// call POSTs in (or GETs when in is nil) and decodes the JSON response
// into out (skipped when out is nil).
func (c *Client) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		js, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fabric: encoding %s request: %w", path, err)
		}
		body = bytes.NewReader(js)
	}
	req, err := http.NewRequest(method, c.url(path), body)
	if err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("fabric: %s: %w", path, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return fmt.Errorf("fabric: reading %s response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &e) == nil && e.Error != "" {
			return fmt.Errorf("fabric: %s: %s", path, e.Error)
		}
		return fmt.Errorf("fabric: %s: HTTP %d", path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("fabric: decoding %s response: %w", path, err)
	}
	return nil
}

// Submit sends a campaign to the dispatcher.
func (c *Client) Submit(spec CampaignSpec) (SubmitResponse, error) {
	var resp SubmitResponse
	err := c.call(http.MethodPost, "/api/submit", spec, &resp)
	return resp, err
}

// Campaign fetches the active campaign spec.
func (c *Client) Campaign() (CampaignDoc, error) {
	var doc CampaignDoc
	err := c.call(http.MethodGet, "/api/campaign", nil, &doc)
	return doc, err
}

// Register announces a worker.
func (c *Client) Register(req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.call(http.MethodPost, "/api/register", req, &resp)
	return resp, err
}

// Book asks for shards.
func (c *Client) Book(req BookRequest) (BookResponse, error) {
	var resp BookResponse
	err := c.call(http.MethodPost, "/api/book", req, &resp)
	return resp, err
}

// Heartbeat extends the worker's leases.
func (c *Client) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.call(http.MethodPost, "/api/heartbeat", req, &resp)
	return resp, err
}

// Result uploads one shard record.
func (c *Client) Result(req ResultRequest) (ResultResponse, error) {
	var resp ResultResponse
	err := c.call(http.MethodPost, "/api/result", req, &resp)
	return resp, err
}

// State fetches the dispatcher state document.
func (c *Client) State() (StateDoc, error) {
	var doc StateDoc
	err := c.call(http.MethodGet, "/api/state", nil, &doc)
	return doc, err
}

// Timeline fetches the campaign's per-shard event history.
func (c *Client) Timeline() (TimelineDoc, error) {
	var doc TimelineDoc
	err := c.call(http.MethodGet, "/api/timeline", nil, &doc)
	return doc, err
}

// Fleet fetches live fleet status.
func (c *Client) Fleet() (FleetDoc, error) {
	var doc FleetDoc
	err := c.call(http.MethodGet, "/api/fleet", nil, &doc)
	return doc, err
}

// Merged downloads the canonical merged JSONL stream.
func (c *Client) Merged() ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.url("/api/merged"), nil)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("fabric: /api/merged: %w", err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("fabric: reading merged stream: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("fabric: /api/merged: HTTP %d", resp.StatusCode)
	}
	return payload, nil
}

// ErrCampaignUnknown is returned (wrapped) by WaitMerged when the
// dispatcher answers but has no record of the awaited campaign — the
// signature of a dispatcher restarted without its queue journal. The
// campaign will never merge on its own; resubmit it (or restart the
// dispatcher with -journal pointing at the original file).
var ErrCampaignUnknown = fmt.Errorf("fabric: dispatcher has no record of the campaign (restarted without its journal?)")

// WaitMerged polls the dispatcher until campaignID merges, then returns
// the merged stream. onState, when non-nil, observes every poll (for
// progress display). Transport-level poll errors are tolerated (the
// dispatcher may be momentarily restarting), but a dispatcher that
// answers with no campaign at all fails fast with ErrCampaignUnknown —
// it lost its journal, so the wait would otherwise spin forever; ctx
// bounds the total wait.
func (c *Client) WaitMerged(ctx context.Context, campaignID string, poll time.Duration, onState func(StateDoc)) ([]byte, error) {
	if poll <= 0 {
		poll = time.Second
	}
	for {
		doc, err := c.State()
		if err == nil {
			if onState != nil {
				onState(doc)
			}
			if doc.CampaignID == "" {
				return nil, fmt.Errorf("%w (waiting for %s)", ErrCampaignUnknown, campaignID)
			}
			if doc.CampaignID != campaignID {
				return nil, fmt.Errorf("fabric: dispatcher switched to campaign %s while waiting for %s", doc.CampaignID, campaignID)
			}
			if doc.Phase == "merged" {
				return c.Merged()
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
}
