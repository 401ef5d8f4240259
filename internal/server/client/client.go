// Package client is the typed Go client of the surfknn HTTP API: one
// method per route, speaking the api package's wire types, so no caller
// ever hand-rolls a JSON body or parses an envelope again. The scatter-
// gather coordinator (internal/shard), skquery's remote mode and the
// end-to-end tests are all built on it.
//
// Every call takes a context (deadline and cancellation propagate to the
// HTTP request, and so does a request id it carries, as X-Request-Id),
// surfaces the response's X-Epoch and X-Cache headers in a
// Meta, retries 429s honouring the server's Retry-After header, and turns
// non-2xx envelopes into *APIError values the caller can switch on.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"surfknn/internal/obs"
	"surfknn/internal/server/api"
)

// Client talks to one surfknn server (a standalone instance or one shard).
// Safe for concurrent use. The zero value is not usable — create with New.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	wait    time.Duration
}

// Option tunes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (the default is a
// dedicated client with no global timeout — per-call contexts bound every
// request).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a 429 is retried before giving up
// (default 2; negative disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithMaxRetryWait caps how long one Retry-After pause may last (default
// 2s) — a saturated server asking for a minute should not stall a caller
// holding a short deadline; the context still wins either way.
func WithMaxRetryWait(d time.Duration) Option { return func(c *Client) { c.wait = d } }

// New builds a client for the server at base ("http://host:port", with or
// without a trailing slash; a bare "host:port" defaults to http).
func New(base string, opts ...Option) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{},
		retries: 2,
		wait:    2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the server address the client was built with.
func (c *Client) Base() string { return c.base }

// Meta carries the per-response headers the API contract defines: the
// object-store epoch the answer was computed against, the cache
// disposition ("hit"/"miss", empty on routes that never cache), and — on
// the continuous-query move route — whether the answer came from the
// subscription's safe region ("hit") or a re-evaluation ("miss").
type Meta struct {
	Epoch      uint64
	Cache      string
	SafeRegion string
}

// APIError is a non-2xx response decoded from the server's error envelope.
type APIError struct {
	Status  int              // HTTP status code
	Code    string           // api.Code* constant
	Message string           // human-readable detail
	Shards  []api.ShardError // per-shard failures on a degraded scatter-gather answer
	// Line/Col/Token locate the offending token of a rejected SKQL
	// statement (the /v1/query and /v1/explain routes); zero otherwise.
	Line  int
	Col   int
	Token string
}

func (e *APIError) Error() string {
	if len(e.Shards) > 0 {
		return fmt.Sprintf("%s (%d): %s [%d shards failed]", e.Code, e.Status, e.Message, len(e.Shards))
	}
	return fmt.Sprintf("%s (%d): %s", e.Code, e.Status, e.Message)
}

// Query executes one SKQL statement (POST /v1/query).
func (c *Client) Query(ctx context.Context, req api.QueryRequest) (api.QueryResponse, Meta, error) {
	var res api.QueryResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/query", req, &res)
	return res, meta, err
}

// Explain executes one SKQL statement and returns its annotated plan tree
// (POST /v1/explain).
func (c *Client) Explain(ctx context.Context, req api.ExplainRequest) (api.ExplainResponse, Meta, error) {
	var res api.ExplainResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/explain", req, &res)
	return res, meta, err
}

// KNN runs a surface k-NN query.
func (c *Client) KNN(ctx context.Context, req api.KNNRequest) (api.Result, Meta, error) {
	var res api.Result
	meta, err := c.do(ctx, http.MethodPost, "/v1/knn", req, &res)
	return res, meta, err
}

// Range runs a surface range query.
func (c *Client) Range(ctx context.Context, req api.RangeRequest) (api.Result, Meta, error) {
	var res api.Result
	meta, err := c.do(ctx, http.MethodPost, "/v1/range", req, &res)
	return res, meta, err
}

// Distance computes a point-to-point surface distance range.
func (c *Client) Distance(ctx context.Context, req api.DistanceRequest) (api.DistanceResponse, Meta, error) {
	var res api.DistanceResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/distance", req, &res)
	return res, meta, err
}

// Upsert inserts or moves a batch of objects, publishing one new epoch.
func (c *Client) Upsert(ctx context.Context, req api.UpsertRequest) (api.UpdateResponse, Meta, error) {
	var res api.UpdateResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/objects", req, &res)
	return res, meta, err
}

// Delete removes a batch of objects by id.
func (c *Client) Delete(ctx context.Context, req api.DeleteRequest) (api.DeleteResponse, Meta, error) {
	var res api.DeleteResponse
	meta, err := c.do(ctx, http.MethodDelete, "/v1/objects", req, &res)
	return res, meta, err
}

// Subscribe registers a continuous k-NN query, returning its id, initial
// result and safe radius.
func (c *Client) Subscribe(ctx context.Context, req api.SubscribeRequest) (api.SubscribeResponse, Meta, error) {
	var res api.SubscribeResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/subscribe", req, &res)
	return res, meta, err
}

// MoveSubscription moves a subscription's query point. Meta.SafeRegion
// reports whether the answer came from the safe region ("hit") or a
// re-evaluation ("miss").
func (c *Client) MoveSubscription(ctx context.Context, id uint64, req api.MoveRequest) (api.SubscribeResponse, Meta, error) {
	var res api.SubscribeResponse
	meta, err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/subscribe/%d/move", id), req, &res)
	return res, meta, err
}

// Unsubscribe removes a continuous k-NN subscription.
func (c *Client) Unsubscribe(ctx context.Context, id uint64) (api.UnsubscribeResponse, Meta, error) {
	var res api.UnsubscribeResponse
	meta, err := c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/subscribe/%d", id), nil, &res)
	return res, meta, err
}

// Healthz reads the server's health and topology report.
func (c *Client) Healthz(ctx context.Context) (api.Healthz, error) {
	var res api.Healthz
	_, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &res)
	return res, err
}

// Shard-fabric calls, used by the scatter-gather coordinator.

// ShardKNN2D runs MR3 step 1 over the shard's object partition.
func (c *Client) ShardKNN2D(ctx context.Context, req api.ShardKNN2DRequest) (api.CandidatesResponse, Meta, error) {
	var res api.CandidatesResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/shard/knn2d", req, &res)
	return res, meta, err
}

// ShardRange2D runs MR3 step 3 over the shard's object partition.
func (c *Client) ShardRange2D(ctx context.Context, req api.ShardRange2DRequest) (api.CandidatesResponse, Meta, error) {
	var res api.CandidatesResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/shard/range2d", req, &res)
	return res, meta, err
}

// ShardKNN answers an MR3 k-NN query on the query tile's shard, over its
// partition plus the shipped candidates, or returns the radius to resume at.
func (c *Client) ShardKNN(ctx context.Context, req api.ShardKNNRequest) (api.ShardResult, Meta, error) {
	var res api.ShardResult
	meta, err := c.do(ctx, http.MethodPost, "/v1/shard/knn", req, &res)
	return res, meta, err
}

// ShardEA runs the EA benchmark over the shard's object partition.
func (c *Client) ShardEA(ctx context.Context, req api.ShardEARequest) (api.ShardResult, Meta, error) {
	var res api.ShardResult
	meta, err := c.do(ctx, http.MethodPost, "/v1/shard/ea", req, &res)
	return res, meta, err
}

// ShardRange runs the surface range query over the shard's partition.
func (c *Client) ShardRange(ctx context.Context, req api.ShardRangeRequest) (api.ShardResult, Meta, error) {
	var res api.ShardResult
	meta, err := c.do(ctx, http.MethodPost, "/v1/shard/range", req, &res)
	return res, meta, err
}

// ShardObjects replays one coordinator-assigned logical update.
func (c *Client) ShardObjects(ctx context.Context, req api.ShardObjectsRequest) (api.ShardObjectsResponse, Meta, error) {
	var res api.ShardObjectsResponse
	meta, err := c.do(ctx, http.MethodPost, "/v1/shard/objects", req, &res)
	return res, meta, err
}

// do runs one request: marshal, send, retry saturation, decode.
func (c *Client) do(ctx context.Context, method, path string, reqBody, respBody any) (Meta, error) {
	var payload []byte
	if reqBody != nil {
		var err error
		payload, err = json.Marshal(reqBody)
		if err != nil {
			return Meta{}, fmt.Errorf("client: encoding %s body: %w", path, err)
		}
	}
	for attempt := 0; ; attempt++ {
		meta, retryAfter, err := c.once(ctx, method, path, payload, respBody)
		var apiErr *APIError
		if err == nil || attempt >= c.retries ||
			!errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			return meta, err
		}
		if retryAfter > c.wait {
			retryAfter = c.wait
		}
		select {
		case <-time.After(retryAfter):
		case <-ctx.Done():
			return meta, ctx.Err()
		}
	}
}

// once runs a single HTTP exchange. retryAfter is the server-requested
// pause on a 429 (zero otherwise).
func (c *Client) once(ctx context.Context, method, path string, payload []byte, respBody any) (Meta, time.Duration, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return Meta{}, 0, fmt.Errorf("client: building %s request: %w", path, err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Meta{}, 0, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()

	meta := Meta{Cache: resp.Header.Get("X-Cache"), SafeRegion: resp.Header.Get("X-Safe-Region")}
	if v := resp.Header.Get("X-Epoch"); v != "" {
		if e, err := strconv.ParseUint(v, 10, 64); err == nil {
			meta.Epoch = e
		}
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return meta, 0, fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode}
		var env api.ErrorEnvelope
		if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
			apiErr.Code = env.Error.Code
			apiErr.Message = env.Error.Message
			apiErr.Shards = env.Error.Shards
			apiErr.Line = env.Error.Line
			apiErr.Col = env.Error.Col
			apiErr.Token = env.Error.Token
		} else {
			apiErr.Code = api.CodeInternal
			apiErr.Message = strings.TrimSpace(string(raw))
		}
		var retryAfter time.Duration
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		return meta, retryAfter, apiErr
	}
	if respBody != nil {
		if err := json.Unmarshal(raw, respBody); err != nil {
			return meta, 0, fmt.Errorf("client: decoding %s response: %w", path, err)
		}
	}
	return meta, 0, nil
}
