//go:build !race

package multires

const raceEnabled = false
