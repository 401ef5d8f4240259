// Package front stands in for a package below internal/server that is not
// itself named "server": the rule must follow the directory, not the name.
package front

import "context"

func badFrontRoot() context.Context {
	return context.Background() // still the serving layer
}
