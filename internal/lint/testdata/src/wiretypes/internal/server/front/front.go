// Package front stands in for a package below internal/server that is not
// itself named "server": the rule must follow the directory, not the name.
package front

import "encoding/json"

func badFrontMap() ([]byte, error) {
	return json.Marshal(map[string]string{"status": "ok"}) // still the serving layer
}
