// Package server here is a decoy: named like the serving layer but outside
// internal/server, so the rule must leave it alone.
package server

import "context"

func goodOutsideLayer() context.Context {
	return context.Background()
}
