package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"masksim/internal/simcache"
	"masksim/sim"
)

// identities returns the three identities a config reaches: the checkpoint
// fingerprint and the result-cache keys of a shared and an alone run.
func identities(cfg sim.Config) [3]string {
	return [3]string{
		sim.FingerprintOf(cfg),
		simcache.RunKey(cfg, []string{"3DS", "CONS"}, 1000),
		simcache.AloneKey(cfg, "3DS", 30, 1000),
	}
}

var identityNames = [3]string{"Fingerprint", "RunKey", "AloneKey"}

// TestKeyCoversMachine guards Config.Key, the one input of every checkpoint
// fingerprint and cache key. Every Machine leaf must be plain data, which
// prints by value (a pointer, map, func, chan or interface would print as an
// address or not at all, and an unexported field is invisible to whoever
// edits the key), and changing any one of them must change all three
// identities.
func TestKeyCoversMachine(t *testing.T) {
	cfg := sim.Baseline()
	ref := identities(cfg)
	leaves := 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported; a Machine field must be exported plain data", path, f.Name)
					continue
				}
				walk(path+"."+f.Name, v.Field(i))
			}
			return
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Errorf("%s is a %s; a Machine field must be plain data, which prints by value in every key", path, v.Kind())
			return
		}
		leaves++
		got := identities(cfg)
		for i := range got {
			if got[i] == ref[i] {
				t.Errorf("changing %s leaves %s unchanged", path, identityNames[i])
			}
		}
		v.Set(old)
	}
	walk("Machine", reflect.ValueOf(&cfg.Machine).Elem())
	if identities(cfg) != ref {
		t.Fatal("restoring every Machine leaf did not restore the identities")
	}
	t.Logf("%d Machine leaves perturbed", leaves)
}

// TestKeyIgnoresRunOptions sets every RunOptions field but TelemetryEpoch,
// one after another, and requires all three identities to stay equal: a
// checkpoint or cached result taken under one run setting serves a run
// under any other. TelemetryEpoch alone is keyed, because Results and the
// collector's image hold its samples.
func TestKeyIgnoresRunOptions(t *testing.T) {
	cfg := sim.Baseline()
	prev := identities(cfg)
	opts := reflect.ValueOf(&cfg.RunOptions).Elem()
	for i := 0; i < opts.NumField(); i++ {
		name := opts.Type().Field(i).Name
		if name == "TelemetryEpoch" {
			continue
		}
		v := opts.Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 7_000)
		case reflect.String:
			v.SetString(v.String() + "/elsewhere")
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		default:
			t.Fatalf("RunOptions.%s is a %s, which this test cannot set", name, v.Kind())
		}
		got := identities(cfg)
		if got != prev {
			t.Errorf("setting RunOptions.%s changed the identities", name)
		}
		prev = got
	}
	cfg.TelemetryEpoch = 1000
	got := identities(cfg)
	for i := range got {
		if got[i] == prev[i] {
			t.Errorf("TelemetryEpoch leaves %s unchanged", identityNames[i])
		}
	}
}
