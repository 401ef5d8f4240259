package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
	"time"
)

// RequestIDHeader carries a request's id: the front accepts it from the
// client or assigns one, echoes it on the response and logs it; a
// coordinator forwards it on every shard call, so one fleet query can be
// followed through every process's logs by one id.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds an accepted client-supplied id.
const maxRequestIDLen = 128

var (
	// requestIDPrefix is drawn once per process; the counter makes each
	// id unique within it without a syscall per request.
	requestIDPrefix = func() string {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			ns := time.Now().UnixNano()
			for i := range b {
				b[i] = byte(ns >> (8 * i))
			}
		}
		return hex.EncodeToString(b[:])
	}()
	requestIDSeq atomic.Uint64
)

// NewRequestID returns a fresh id, unique across processes with high
// probability: the process's random prefix and a sequence number.
func NewRequestID() string {
	var b [40]byte
	id := append(append(b[:0], requestIDPrefix...), '-')
	return string(strconv.AppendUint(id, requestIDSeq.Add(1), 10))
}

// ValidRequestID reports whether a client-supplied id may be adopted: 1 to
// 128 bytes of printable ASCII without spaces, so it stays one token in a
// log line.
func ValidRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

type requestIDKey struct{}

// WithRequestID returns ctx carrying the request id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the request id ctx carries, or "".
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
