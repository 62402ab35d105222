package sim

// FingerprintOf is the checkpoint fingerprint of cfg for a simulator with no
// applications, for the key guard in package sim_test, which also reaches
// the result-cache keys.
func FingerprintOf(cfg Config) string { return (&Simulator{cfg: cfg}).Fingerprint() }
