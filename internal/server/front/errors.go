package front

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
)

// Error is a failure with a fixed place in the wire contract: its status,
// its envelope body, and the Retry-After hint when it has one. Back ends
// return these (or errors wrapping them) for the verdicts only they can
// give; everything else is classified by the front.
type Error struct {
	Status     int
	Body       api.ErrorBody
	RetryAfter int // seconds; 0 sends no header
}

func (e *Error) Error() string { return e.Body.Message }

func newError(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Body: api.ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}}
}

// BadRequest is a 400: malformed JSON or invalid parameters.
func BadRequest(format string, args ...any) *Error {
	return newError(http.StatusBadRequest, api.CodeBadRequest, format, args...)
}

// NotFound is a 404: the addressed route, subscription or surface location
// does not exist.
func NotFound(format string, args ...any) *Error {
	return newError(http.StatusNotFound, api.CodeNotFound, format, args...)
}

// Internal is a 500: an engine failure the request did not cause.
func Internal(format string, args ...any) *Error {
	return newError(http.StatusInternalServerError, api.CodeInternal, format, args...)
}

// Saturated is a 429: admission control shed the request.
func Saturated(retryAfter int, format string, args ...any) *Error {
	e := newError(http.StatusTooManyRequests, api.CodeSaturated, format, args...)
	e.RetryAfter = retryAfter
	return e
}

// Unavailable is a 503: required shards are down and the answer would be
// partial. The envelope names each failed shard.
func Unavailable(shards []api.ShardError) *Error {
	e := newError(http.StatusServiceUnavailable, api.CodeShardUnavailable,
		"%d shard(s) unavailable; the answer would be partial", len(shards))
	e.Body.Shards = shards
	e.RetryAfter = 1
	return e
}

// classify is the one error→status mapping: a typed *Error keeps its place,
// an SKQL diagnostic is a 400 carrying its source position, cancellation
// and deadline are 408 (the request's own timeout fired or the client went
// away), and anything else is a 500 — validation has already vetted the
// parameters by the time a query runs.
func classify(err error) *Error {
	var e *Error
	var le *sklang.Error
	switch {
	case errors.As(err, &e):
		return e
	case errors.As(err, &le):
		e = BadRequest("%s", le.Error())
		e.Body.Line, e.Body.Col, e.Body.Token = le.Pos.Line, le.Pos.Col, le.Tok
		return e
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return newError(http.StatusRequestTimeout, api.CodeTimeout, "query aborted: %v", err)
	}
	return Internal("query failed: %v", err)
}

// fail writes err's envelope and feeds the outcome counters.
func (f *front) fail(w http.ResponseWriter, err error) {
	e := classify(err)
	switch e.Status {
	case http.StatusBadRequest, http.StatusNotFound:
		count(f.n.BadRequests)
	case http.StatusRequestTimeout:
		count(f.n.TimedOut)
	case http.StatusTooManyRequests:
		count(f.n.Rejected)
	case http.StatusServiceUnavailable:
		count(f.n.Degraded)
	}
	WriteError(w, e)
}

// WriteError emits the typed error envelope. Encoding a fixed struct cannot
// fail, so the reply is always well-formed JSON.
func WriteError(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	w.WriteHeader(e.Status)
	// The client may already be gone; nothing useful to do with the error.
	//lint:ignore dropped-error the reply path has no caller to surface a write error to
	_ = json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: e.Body})
}
