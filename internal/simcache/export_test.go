package simcache

import "ebm/internal/spec"

// KeyBytes returns the bytes HashRun hashes for rs under no versions.
func KeyBytes(rs spec.RunSpec) []byte {
	var w keyWriter
	w.run(&rs)
	return w.b
}
