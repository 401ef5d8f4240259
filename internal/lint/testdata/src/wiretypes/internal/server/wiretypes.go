// Package server is the wire-types fixture: the rule scopes on the import
// path, so this directory (…/wiretypes/internal/server) stands in for
// internal/server and internal/shard. Every JSON shape the serving layer emits must be a named type from the
// importable api package; maps and anonymous structs mint accidental wire
// formats no client can depend on.
package server

import (
	stdjson "encoding/json"
	"net/http"
)

// envelope stands in for a named api type: marshaling it is the sanctioned
// shape.
type envelope struct {
	Status string `json:"status"`
}

func badMapMarshal(w http.ResponseWriter) error {
	body, err := stdjson.Marshal(map[string]any{"status": "ok"}) // ad-hoc shape
	if err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return nil
}

func badAnonStructEncode(w http.ResponseWriter) error {
	// The alias does not launder the call: resolution is by type info.
	return stdjson.NewEncoder(w).Encode(struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

func badMapIndent() ([]byte, error) {
	return stdjson.MarshalIndent(map[string]int{"n": 1}, "", "  ")
}

func badMapPointer() ([]byte, error) {
	m := &map[string]string{"k": "v"}
	return stdjson.Marshal(m) // a pointer does not hide the map
}

func goodNamedType(w http.ResponseWriter) error {
	body, err := stdjson.Marshal(envelope{Status: "ok"})
	if err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return stdjson.NewEncoder(w).Encode(&envelope{Status: "ok"})
}

func goodSliceOfNamed(w http.ResponseWriter) error {
	return stdjson.NewEncoder(w).Encode([]envelope{{Status: "ok"}})
}

func goodSuppressed() ([]byte, error) {
	//lint:ignore wire-types expvar debug output, not a versioned wire shape
	return stdjson.Marshal(map[string]int{"debug": 1})
}

// marshaller is a same-name decoy: a local Marshal is not encoding/json's.
type marshaller struct{}

func (marshaller) Marshal(v any) ([]byte, error) { return nil, nil }

func goodDecoy() ([]byte, error) {
	var m marshaller
	return m.Marshal(map[string]any{"not": "the rule's business"})
}
