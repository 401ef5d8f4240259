package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/mesh"
	"surfknn/internal/server/api"
	"surfknn/internal/server/front"
	"surfknn/internal/workload"
)

// newUpdateTestDB builds a PRIVATE database per test: update tests bump
// epochs, which must not leak into the shared read-only fixture other
// tests key their cache expectations on.
func newUpdateTestDB(t testing.TB) *core.TerrainDB {
	t.Helper()
	g := dem.Synthesize(dem.EP, 16, 100, 2006)
	m := mesh.FromGrid(g)
	db, err := core.BuildTerrainDB(m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := workload.RandomObjects(m, db.Loc, 30, 2007)
	if err != nil {
		t.Fatal(err)
	}
	db.SetObjects(objs)
	return db
}

// do drives one request with an arbitrary method through the handler chain.
func do(t testing.TB, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestUpsertObjects(t *testing.T) {
	db := newUpdateTestDB(t)
	s := New(db, Config{})

	// A query before any update carries epoch 0 in X-Epoch.
	before := post(t, s, "/v1/knn", `{"x":800,"y":800,"k":3}`)
	if before.Code != http.StatusOK {
		t.Fatalf("pre-update knn: status %d\n%s", before.Code, before.Body.String())
	}
	if got := before.Header().Get("X-Epoch"); got != "0" {
		t.Errorf("pre-update X-Epoch = %q, want 0", got)
	}

	// Upsert a new object right at the query point.
	w := do(t, s, http.MethodPost, "/v1/objects",
		`{"objects":[{"id":9001,"x":800,"y":800}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("upsert: status %d\n%s", w.Code, w.Body.String())
	}
	var ur api.UpdateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Epoch != 1 || ur.Count != 1 {
		t.Errorf("upsert response = %+v, want epoch 1 count 1", ur)
	}
	if got := w.Header().Get("X-Epoch"); got != "1" {
		t.Errorf("upsert X-Epoch = %q, want 1", got)
	}

	// The same query now sees the new object — the pre-update cache entry
	// is keyed under epoch 0 and unreachable, so this is a miss at epoch 1.
	after := post(t, s, "/v1/knn", `{"x":800,"y":800,"k":3}`)
	if after.Code != http.StatusOK {
		t.Fatalf("post-update knn: status %d\n%s", after.Code, after.Body.String())
	}
	if got := after.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("post-update knn X-Cache = %q, want miss (stale entry must be unreachable)", got)
	}
	if got := after.Header().Get("X-Epoch"); got != "1" {
		t.Errorf("post-update X-Epoch = %q, want 1", got)
	}
	var resp api.Result
	if err := json.Unmarshal(after.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) == 0 || resp.Neighbors[0].ID != 9001 {
		t.Errorf("nearest neighbour after upsert = %+v, want id 9001 first", resp.Neighbors)
	}

	// Re-running the query is now a hit — at the new epoch.
	again := post(t, s, "/v1/knn", `{"x":800,"y":800,"k":3}`)
	if got := again.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat knn X-Cache = %q, want hit", got)
	}
	if got := again.Header().Get("X-Epoch"); got != "1" {
		t.Errorf("repeat knn X-Epoch = %q, want 1", got)
	}
}

func TestDeleteObjects(t *testing.T) {
	db := newUpdateTestDB(t)
	s := New(db, Config{})

	w := do(t, s, http.MethodPost, "/v1/objects",
		`{"objects":[{"id":9001,"x":800,"y":800},{"id":9002,"x":810,"y":810}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("upsert: status %d\n%s", w.Code, w.Body.String())
	}

	// Delete one live id, one unknown id.
	w = do(t, s, http.MethodDelete, "/v1/objects", `{"ids":[9001,123456]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("delete: status %d\n%s", w.Code, w.Body.String())
	}
	var dr api.DeleteResponse
	if err := json.Unmarshal(w.Body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Epoch != 2 || dr.Deleted != 1 || dr.Missing != 1 {
		t.Errorf("delete response = %+v, want epoch 2 deleted 1 missing 1", dr)
	}
	if _, ok := db.Object(9001); ok {
		t.Error("object 9001 still live after delete")
	}
	if _, ok := db.Object(9002); !ok {
		t.Error("object 9002 vanished")
	}

	// Deleting only unknown ids publishes no epoch.
	w = do(t, s, http.MethodDelete, "/v1/objects", `{"ids":[999999]}`)
	if err := json.Unmarshal(w.Body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Epoch != 2 || dr.Deleted != 0 || dr.Missing != 1 {
		t.Errorf("no-op delete response = %+v, want epoch 2 deleted 0 missing 1", dr)
	}
}

func TestUpdateValidation(t *testing.T) {
	db := newUpdateTestDB(t)
	s := New(db, Config{})
	cases := []struct {
		name, method, body string
		status             int
	}{
		{"empty batch", http.MethodPost, `{"objects":[]}`, http.StatusBadRequest},
		{"missing id", http.MethodPost, `{"objects":[{"x":800,"y":800}]}`, http.StatusBadRequest},
		{"off-terrain position", http.MethodPost, `{"objects":[{"id":1,"x":-1e6,"y":0}]}`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"objects":[{"id":1,"x":800,"y":800,"z":3}]}`, http.StatusBadRequest},
		{"empty ids", http.MethodDelete, `{"ids":[]}`, http.StatusBadRequest},
		{"malformed", http.MethodDelete, `{"ids":`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, tc.method, "/v1/objects", tc.body)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d\n%s", w.Code, tc.status, w.Body.String())
			}
			decodeError(t, w)
		})
	}

	// Oversized batches are rejected in both directions.
	var sb strings.Builder
	sb.WriteString(`{"objects":[`)
	for i := 0; i <= front.MaxUpdateBatch; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"id":%d,"x":800,"y":800}`, i)
	}
	sb.WriteString(`]}`)
	if w := do(t, s, http.MethodPost, "/v1/objects", sb.String()); w.Code != http.StatusBadRequest {
		t.Errorf("oversized upsert: status = %d, want 400", w.Code)
	}

	// Validation failure publishes no epoch.
	if got := db.CurrentEpoch(); got != 0 {
		t.Errorf("epoch after rejected updates = %d, want 0", got)
	}
}

func TestHealthzEpoch(t *testing.T) {
	db := newUpdateTestDB(t)
	s := New(db, Config{})
	do(t, s, http.MethodPost, "/v1/objects", `{"objects":[{"id":9001,"x":800,"y":800}]}`)

	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var hz api.Healthz
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Epoch != 1 {
		t.Errorf("healthz epoch = %d, want 1", hz.Epoch)
	}
	if hz.Objects != 31 {
		t.Errorf("healthz objects = %d, want 31", hz.Objects)
	}
	if got := w.Header().Get("X-Epoch"); got != "1" {
		t.Errorf("healthz X-Epoch = %q, want 1", got)
	}
}
