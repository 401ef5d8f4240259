// Package server here is a decoy: named like the serving layer but outside
// internal/server, so the rule must leave it alone.
package server

import "encoding/json"

func goodOutsideLayer() ([]byte, error) {
	return json.Marshal(map[string]int{"debug": 1})
}
