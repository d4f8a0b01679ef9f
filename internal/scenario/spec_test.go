package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// validSpec returns a small well-formed spec document.
func validSpec() string {
	return `{
  "name": "unit",
  "seed": 3,
  "deadline_s": 20,
  "topology": {"kind": "chain", "nodes": 4},
  "flows": [
    {"name": "bulk", "protocol": "more", "src": 0, "dst": 3,
     "traffic": {"model": "file", "bytes": 32768}}
  ]
}`
}

func TestParseNormalizesDefaults(t *testing.T) {
	s, err := Parse([]byte(validSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Batch != 32 || s.PktSize != 1500 {
		t.Errorf("defaults not filled: batch=%d pkt=%d", s.Batch, s.PktSize)
	}
	if s.State.Mode != "oracle" || s.CC.Policy != "none" {
		t.Errorf("mode defaults not filled: %+v %+v", s.State, s.CC)
	}
}

// TestEncodeParseRoundTrip is the loader's round-trip property: a parsed
// spec encodes to a document that parses back to the identical spec, and
// encoding is a fixed point from the first normalization on.
func TestEncodeParseRoundTrip(t *testing.T) {
	s, err := Parse([]byte(validSpec()))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(enc)
	if err != nil {
		t.Fatalf("re-parse of encoded spec failed: %v\n%s", err, enc)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Errorf("round trip changed the spec:\nbefore %+v\nafter  %+v", s, s2)
	}
	enc2, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(enc2) {
		t.Error("Encode is not a fixed point after normalization")
	}
}

// mutate applies a JSON-level edit to the valid spec.
func mutate(t *testing.T, edit func(m map[string]interface{})) []byte {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal([]byte(validSpec()), &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func flow0(m map[string]interface{}) map[string]interface{} {
	return m["flows"].([]interface{})[0].(map[string]interface{})
}

// TestRejectsInvalidSpecs drives the validator through every rejection
// class the satellite work names — unknown protocol, overlapping schedule
// events, zero-rate flows — plus the rest of the vocabulary, checking each
// error message names the problem.
func TestRejectsInvalidSpecs(t *testing.T) {
	cases := []struct {
		name    string
		edit    func(m map[string]interface{})
		wantErr string
	}{
		{"unknown protocol", func(m map[string]interface{}) {
			flow0(m)["protocol"] = "ospf"
		}, "unknown protocol"},
		{"unknown topology", func(m map[string]interface{}) {
			m["topology"].(map[string]interface{})["kind"] = "torus"
		}, "unknown topology kind"},
		{"removed topology kind names the admitted set", func(m map[string]interface{}) {
			m["topology"] = map[string]interface{}{"kind": "corridor", "nodes": 12}
		}, `unknown topology kind "corridor" (want testbed, chain, diamond, grid, geometric)`},
		{"removed cc policy names the admitted set", func(m map[string]interface{}) {
			m["cc"] = map[string]interface{}{"policy": "aimd"}
		}, `unknown policy "aimd" (want none, tail, choke, credit)`},
		{"deleted cc policy cubic names the admitted set", func(m map[string]interface{}) {
			m["cc"] = map[string]interface{}{"policy": "cubic"}
		}, `unknown policy "cubic" (want none, tail, choke, credit)`},
		{"removed key credit_min_k", func(m map[string]interface{}) {
			m["cc"] = map[string]interface{}{"policy": "credit", "credit_min_k": 8}
		}, `unknown field "credit_min_k"`},
		{"removed key load_export", func(m map[string]interface{}) {
			m["cc"] = map[string]interface{}{"policy": "tail", "load_export": true}
		}, `unknown field "load_export"`},
		{"unknown traffic model", func(m map[string]interface{}) {
			flow0(m)["traffic"] = map[string]interface{}{"model": "poisson"}
		}, "unknown traffic model"},
		{"zero-rate push flow", func(m map[string]interface{}) {
			flow0(m)["protocol"] = "push"
			flow0(m)["traffic"] = map[string]interface{}{"model": "cbr", "rate_pps": 0, "packets": 10}
		}, "rate_pps > 0"},
		{"push without packet budget", func(m map[string]interface{}) {
			flow0(m)["protocol"] = "push"
			flow0(m)["traffic"] = map[string]interface{}{"model": "cbr", "rate_pps": 100}
		}, "packets > 0"},
		{"push model on pull protocol", func(m map[string]interface{}) {
			flow0(m)["traffic"] = map[string]interface{}{"model": "cbr", "rate_pps": 100, "packets": 10}
		}, "needs protocol push"},
		{"file model on push protocol", func(m map[string]interface{}) {
			flow0(m)["protocol"] = "push"
		}, "cbr or onoff"},
		{"onoff without durations", func(m map[string]interface{}) {
			flow0(m)["protocol"] = "push"
			flow0(m)["traffic"] = map[string]interface{}{"model": "onoff", "rate_pps": 100, "packets": 10}
		}, "on_s > 0"},
		{"zero-byte file", func(m map[string]interface{}) {
			flow0(m)["traffic"] = map[string]interface{}{"model": "file", "bytes": 0}
		}, "bytes > 0"},
		{"src out of range", func(m map[string]interface{}) {
			flow0(m)["src"] = 99
		}, "outside topology"},
		{"src equals dst", func(m map[string]interface{}) {
			flow0(m)["src"] = 3
		}, "src == dst"},
		{"auto_pair with explicit endpoints", func(m map[string]interface{}) {
			flow0(m)["auto_pair"] = true
		}, "mutually exclusive"},
		{"duplicate flow names", func(m map[string]interface{}) {
			f := flow0(m)
			m["flows"] = []interface{}{f, f}
		}, "duplicate flow name"},
		{"missing deadline", func(m map[string]interface{}) {
			delete(m, "deadline_s")
		}, "deadline_s"},
		{"start past deadline", func(m map[string]interface{}) {
			flow0(m)["start_s"] = 30.0
		}, "past the deadline"},
		{"stop before start", func(m map[string]interface{}) {
			flow0(m)["protocol"] = "push"
			flow0(m)["traffic"] = map[string]interface{}{"model": "cbr", "rate_pps": 50, "packets": 10}
			flow0(m)["start_s"] = 5.0
			flow0(m)["stop_s"] = 5.0
		}, "overlapping schedule"},
		{"stop on pull flow", func(m map[string]interface{}) {
			flow0(m)["stop_s"] = 5.0
		}, "push flows only"},
		{"no flows", func(m map[string]interface{}) {
			m["flows"] = []interface{}{}
		}, "no flows"},
		{"unknown state mode", func(m map[string]interface{}) {
			m["state"] = map[string]interface{}{"mode": "psychic"}
		}, "unknown state mode"},
		{"unknown cc policy", func(m map[string]interface{}) {
			m["cc"] = map[string]interface{}{"policy": "red"}
		}, "unknown policy"},
		{"unknown event action", func(m map[string]interface{}) {
			m["events"] = []interface{}{map[string]interface{}{"at_s": 1, "action": "reboot"}}
		}, "unknown action"},
		{"degrade without drop", func(m map[string]interface{}) {
			m["events"] = []interface{}{map[string]interface{}{"at_s": 1, "action": "degrade"}}
		}, "drop in (0,1)"},
		{"event past deadline", func(m map[string]interface{}) {
			m["events"] = []interface{}{map[string]interface{}{"at_s": 50, "action": "degrade", "drop": 0.1}}
		}, "outside [0, deadline)"},
		{"duplicate events", func(m map[string]interface{}) {
			e := map[string]interface{}{"at_s": 1, "action": "degrade", "drop": 0.1}
			m["events"] = []interface{}{e, e}
		}, "overlapping schedule"},
		{"repeated node failure", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "fail_node", "node": 1},
				map[string]interface{}{"at_s": 2, "action": "fail_node", "node": 1},
			}
		}, "already failed"},
		{"fail_node out of range", func(m map[string]interface{}) {
			m["events"] = []interface{}{map[string]interface{}{"at_s": 1, "action": "fail_node", "node": 9}}
		}, "outside topology"},
		{"unknown field", func(m map[string]interface{}) {
			m["dead_line_s"] = 10
		}, "unknown field"},
		{"sized topology without nodes", func(m map[string]interface{}) {
			m["topology"] = map[string]interface{}{"kind": "chain"}
			flow0(m)["dst"] = 1
		}, "needs nodes >= 2"},
		{"nodes on a fixed-size topology", func(m map[string]interface{}) {
			m["topology"] = map[string]interface{}{"kind": "testbed", "nodes": 50}
		}, "fixed size"},
		{"geometric knobs on a chain", func(m map[string]interface{}) {
			m["topology"] = map[string]interface{}{"kind": "chain", "nodes": 4, "degree": 8}
		}, "geometric topologies only"},
		{"topology seed on the testbed", func(m map[string]interface{}) {
			m["topology"] = map[string]interface{}{"kind": "testbed", "seed": 7}
		}, "topology testbed draws nothing from a seed"},
		{"topology seed on a chain", func(m map[string]interface{}) {
			m["topology"] = map[string]interface{}{"kind": "chain", "nodes": 4, "seed": 7}
		}, "topology chain draws nothing from a seed"},
		{"topology seed on the diamond", func(m map[string]interface{}) {
			m["topology"] = map[string]interface{}{"kind": "diamond", "seed": 7}
			flow0(m)["src"], flow0(m)["dst"] = 0, 2
		}, "topology diamond draws nothing from a seed"},
		{"topology seed on the grid", func(m map[string]interface{}) {
			m["topology"] = map[string]interface{}{"kind": "grid", "seed": 7}
		}, "topology grid draws nothing from a seed"},
		{"unknown metric", func(m map[string]interface{}) {
			m["metric"] = "hops"
		}, "unknown metric"},
		{"learned knobs under oracle state", func(m map[string]interface{}) {
			m["state"] = map[string]interface{}{"mode": "oracle", "advertise_s": 2}
		}, "apply to mode learned only"},
		{"the probe window is an unknown field", func(m map[string]interface{}) {
			m["state"] = map[string]interface{}{"mode": "learned", "window": 20}
		}, `unknown field "window"`},
		{"learned knobs with the mode left to default", func(m map[string]interface{}) {
			m["state"] = map[string]interface{}{"piggyback": true}
		}, "apply to mode learned only"},
		{"load penalty is an unknown field", func(m map[string]interface{}) {
			m["cc"] = map[string]interface{}{"policy": "credit", "load_penalty": 2}
		}, `unknown field "load_penalty"`},
		{"cbr traffic on srcr-auto", func(m map[string]interface{}) {
			flow0(m)["protocol"] = "srcr-auto"
			flow0(m)["traffic"] = map[string]interface{}{"model": "cbr", "rate_pps": 100, "packets": 10}
		}, "needs protocol push"},
		{"onoff durations on cbr", func(m map[string]interface{}) {
			flow0(m)["protocol"] = "push"
			flow0(m)["traffic"] = map[string]interface{}{
				"model": "cbr", "rate_pps": 100, "packets": 10, "on_s": 5,
			}
		}, "cbr traffic takes no on_s/off_s"},
		{"recover without a fail", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "recover_node", "node": 1},
			}
		}, "recover must follow a fail"},
		{"recover of a different node", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "fail_node", "node": 1},
				map[string]interface{}{"at_s": 2, "action": "recover_node", "node": 2},
			}
		}, "recover must follow a fail"},
		{"restore without a fail", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "restore_link", "a": 0, "b": 1},
			}
		}, "restore must follow a fail"},
		{"link self-loop", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "fail_link", "a": 1, "b": 1},
			}
		}, "link endpoints must differ"},
		{"fail_link out of range", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "fail_link", "a": 0, "b": 9},
			}
		}, "outside topology"},
		{"repeated link failure", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "fail_link", "a": 0, "b": 1},
				map[string]interface{}{"at_s": 2, "action": "fail_link", "b": 0, "a": 1},
			}
		}, "already failed"},
		{"fail_node with stray link fields", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "fail_node", "node": 1, "a": 0, "b": 1},
			}
		}, "takes only a node"},
		{"fail_link with stray node field", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "fail_link", "a": 0, "b": 1, "node": 2},
			}
		}, "takes only link endpoints"},
		{"set_rate on a pull flow", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "set_rate", "flow": "bulk", "rate_pps": 50},
			}
		}, "not a push cbr flow"},
		{"set_rate on an unknown flow", func(m map[string]interface{}) {
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "set_rate", "flow": "ghost", "rate_pps": 50},
			}
		}, "not a push cbr flow"},
		{"set_rate with zero rate", func(m map[string]interface{}) {
			flow0(m)["protocol"] = "push"
			flow0(m)["traffic"] = map[string]interface{}{"model": "cbr", "rate_pps": 20, "packets": 10}
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "set_rate", "flow": "bulk", "rate_pps": 0},
			}
		}, "rate_pps > 0"},
		{"set_rate with stray node field", func(m map[string]interface{}) {
			flow0(m)["protocol"] = "push"
			flow0(m)["traffic"] = map[string]interface{}{"model": "cbr", "rate_pps": 20, "packets": 10}
			m["events"] = []interface{}{
				map[string]interface{}{"at_s": 1, "action": "set_rate", "flow": "bulk", "rate_pps": 50, "node": 1},
			}
		}, "takes only flow and rate_pps"},
		{"negative repair interval", func(m map[string]interface{}) {
			m["repair_s"] = -1.0
		}, "repair_s must be >= 0"},
		{"churn range outside topology", func(m map[string]interface{}) {
			m["churn"] = map[string]interface{}{
				"node_lo": 0, "node_hi": 9, "events": 1, "down_s": 1, "start_s": 1, "end_s": 5,
			}
		}, "outside topology"},
		{"churn without events", func(m map[string]interface{}) {
			m["churn"] = map[string]interface{}{
				"node_lo": 1, "node_hi": 2, "down_s": 1, "start_s": 1, "end_s": 5,
			}
		}, "events >= 1"},
		{"churn without outage duration", func(m map[string]interface{}) {
			m["churn"] = map[string]interface{}{
				"node_lo": 1, "node_hi": 2, "events": 1, "start_s": 1, "end_s": 5,
			}
		}, "down_s > 0"},
		{"churn with empty window", func(m map[string]interface{}) {
			m["churn"] = map[string]interface{}{
				"node_lo": 1, "node_hi": 2, "events": 1, "down_s": 1, "start_s": 5, "end_s": 5,
			}
		}, "empty or negative"},
		{"churn recoveries past deadline", func(m map[string]interface{}) {
			m["churn"] = map[string]interface{}{
				"node_lo": 1, "node_hi": 2, "events": 1, "down_s": 10, "start_s": 1, "end_s": 15,
			}
		}, "before the deadline"},
		{"churn with auto_pair flow", func(m map[string]interface{}) {
			f := flow0(m)
			delete(f, "src")
			delete(f, "dst")
			f["auto_pair"] = true
			m["churn"] = map[string]interface{}{
				"node_lo": 1, "node_hi": 2, "events": 1, "down_s": 1, "start_s": 1, "end_s": 5,
			}
		}, "mutually exclusive"},
		{"churn wants more nodes than exist", func(m map[string]interface{}) {
			// Flow endpoints 0 and 3 are excluded: only nodes 1 and 2 are
			// candidates, so three events cannot draw distinct victims.
			m["churn"] = map[string]interface{}{
				"node_lo": 0, "node_hi": 3, "events": 3, "down_s": 1, "start_s": 1, "end_s": 5,
			}
		}, "candidate nodes are free of flow endpoints"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(mutate(t, c.edit))
			if err == nil {
				t.Fatalf("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// FuzzParse feeds arbitrary bytes to the loader: it must never panic, and
// anything it accepts must survive an encode/parse round trip.
func FuzzParse(f *testing.F) {
	f.Add([]byte(validSpec()))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","deadline_s":1e300,"topology":{"kind":"chain","nodes":2},"flows":[]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"name":"x","deadline_s":20,"topology":{"kind":"chain","nodes":4},
	  "flows":[{"name":"f","protocol":"more","src":0,"dst":3,"traffic":{"model":"file","bytes":1}}],
	  "events":[{"at_s":1,"action":"fail_node","node":1},{"at_s":2,"action":"recover_node","node":1},
	    {"at_s":3,"action":"fail_link","a":0,"b":1},{"at_s":4,"action":"restore_link","a":1,"b":0}]}`))
	f.Add([]byte(`{"name":"x","deadline_s":20,"topology":{"kind":"chain","nodes":4},
	  "flows":[{"name":"f","protocol":"push","src":0,"dst":3,"traffic":{"model":"cbr","rate_pps":10,"packets":5}}],
	  "events":[{"at_s":1,"action":"set_rate","flow":"f","rate_pps":20}]}`))
	f.Add([]byte(`{"name":"x","deadline_s":20,"topology":{"kind":"chain","nodes":6},"repair_s":2,
	  "flows":[{"name":"f","protocol":"more","src":0,"dst":5,"traffic":{"model":"file","bytes":1}}],
	  "churn":{"node_lo":1,"node_hi":4,"events":2,"down_s":1,"start_s":1,"end_s":5,"seed":9}}`))
	f.Add([]byte(`{"name":"x","deadline_s":20,"topology":{"kind":"chain","nodes":4},
	  "flows":[{"name":"f","protocol":"more","src":0,"dst":3,"traffic":{"model":"file","bytes":1}}],
	  "churn":{"node_hi":-1,"events":-3,"down_s":-1e9,"start_s":9e18,"end_s":-9e18}}`))
	f.Add([]byte(`{"name":"x","deadline_s":20,"topology":{"kind":"chain","nodes":4},
	  "flows":[{"name":"f","protocol":"more","src":0,"dst":3,"traffic":{"model":"file","bytes":1}}],
	  "events":[{"at_s":1,"action":"restore_link","a":0,"b":0},{"at_s":0,"action":"recover_node","node":99}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted spec failed to encode: %v", err)
		}
		s2, err := Parse(enc)
		if err != nil {
			t.Fatalf("accepted spec failed to re-parse: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed accepted spec:\nbefore %+v\nafter  %+v", s, s2)
		}
	})
}
