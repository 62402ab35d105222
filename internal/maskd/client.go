package maskd

// The client side: a simcache.RemoteStore over the /v1/cache endpoints (what
// maskexp -remote plugs behind its local cache) and a small job client for
// submit/poll/cancel (what the CI smoke test and other tooling drive).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// maxStoreEntry is the default cap on a fetched cache entry. Responses past
// the cap are a miss, never a truncated "hit".
const maxStoreEntry = 256 << 20

// Client talks to one maskd server. The zero HTTP client is usable; APIKey
// identifies the tenant (empty = anonymous).
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:7070".
	Base   string
	APIKey string
	// HTTP is the underlying client (nil = a 30s-timeout default).
	HTTP *http.Client
	// MaxEntryBytes caps a fetched store entry (0 = 256 MiB). A response past
	// the cap is reported as a miss, never returned truncated.
	MaxEntryBytes int64

	errs atomic.Uint64
}

func (c *Client) maxEntry() int64 {
	if c.MaxEntryBytes > 0 {
		return c.MaxEntryBytes
	}
	return maxStoreEntry
}

func (c *Client) http_() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.Base, "/") + path
}

func (c *Client) do(req *http.Request) (*http.Response, error) {
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
	return c.http_().Do(req)
}

// Get implements simcache.RemoteStore: fetch one raw entry by fingerprint.
// Any failure — network, non-200, oversized body — is a miss; the caller
// falls back to simulating, so the store can never make a campaign fail.
func (c *Client) Get(key string) ([]byte, bool) {
	req, err := http.NewRequest(http.MethodGet, c.url("/v1/cache/"+key), nil)
	if err != nil {
		return nil, false
	}
	resp, err := c.do(req)
	if err != nil {
		c.errs.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	// Read one byte past the cap: at exactly cap bytes of body the extra read
	// hits EOF and the entry is served whole, while a longer body trips the
	// check below. Capping the read at the limit itself would hand the cache
	// a silently truncated — corrupt — entry and call it a hit.
	limit := c.maxEntry()
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		c.errs.Add(1)
		return nil, false
	}
	if int64(len(data)) > limit {
		c.errs.Add(1)
		return nil, false
	}
	return data, true
}

// Put implements simcache.RemoteStore: publish one raw entry. Best-effort;
// failures are counted but never surfaced (publishing is a favor to other
// clients, not part of this campaign's correctness).
func (c *Client) Put(key string, data []byte) {
	req, err := http.NewRequest(http.MethodPut, c.url("/v1/cache/"+key), bytes.NewReader(data))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		c.errs.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		c.errs.Add(1)
	}
}

// TransportErrors reports failed store round-trips (diagnostic only).
func (c *Client) TransportErrors() uint64 { return c.errs.Load() }

// statusError is a non-2xx API response.
type statusError struct {
	Code int
	Body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("maskd: HTTP %d: %s", e.Code, strings.TrimSpace(e.Body))
}

func decodeResponse(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxStoreEntry))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{Code: resp.StatusCode, Body: string(body)}
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

// Submit posts a job and returns its initial status.
func (c *Client) Submit(req SubmitRequest) (*JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, c.url("/v1/jobs"), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.do(hr)
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if err := decodeResponse(resp, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches one snapshot; with wait > 0 it long-polls past version since.
func (c *Client) Job(ctx context.Context, id string, since uint64, wait time.Duration) (*JobStatus, error) {
	u := c.url("/v1/jobs/" + id)
	if wait > 0 {
		u += "?since=" + strconv.FormatUint(since, 10) + "&wait=" + wait.String()
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	// The long-poll must outlive the default client timeout.
	cl := c.http_()
	if wait > 0 && cl.Timeout > 0 && cl.Timeout < wait+10*time.Second {
		clCopy := *cl
		clCopy.Timeout = wait + 10*time.Second
		cl = &clCopy
	}
	if c.APIKey != "" {
		hr.Header.Set("X-API-Key", c.APIKey)
	}
	resp, err := cl.Do(hr)
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if err := decodeResponse(resp, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait long-polls until the job is terminal or ctx expires.
func (c *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	var since uint64
	for {
		st, err := c.Job(ctx, id, since, 30*time.Second)
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
			return st, nil
		}
		since = st.Version
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
}
