package manifest

import (
	"bytes"
	"strings"
	"testing"
)

// input digests data the way the sweep cache does before recording it.
func input(key string, data []byte) Input {
	return Input{Key: key, SHA256: HashBytes(data), Bytes: int64(len(data))}
}

func sample() *Manifest {
	m := New([]byte("[run]\ncommand = \"listrank\"\n"), "abc123", "pargraph-inputs-v1")
	m.Commit = "deadbeef" // pin: the real value depends on the build
	var l Log
	l.Add(input("list/1024/Random/7", []byte("list-bytes")))
	l.Add(input("gnm/64/128/1", []byte("graph-bytes")))
	m.Inputs, _ = l.Inputs()
	m.AddArtifact("stdout", "", []byte("machine=MTA\n"))
	m.AddArtifact("trace", "t.json", []byte("{}"))
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sample()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("round trip not byte-stable:\n%s\nvs\n%s", data, data2)
	}
	if len(m2.Inputs) != 2 || m2.Inputs[0].Key != "gnm/64/128/1" {
		t.Errorf("inputs not sorted by key: %+v", m2.Inputs)
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	_, err := Decode([]byte(`{"schema": "pargraph-manifest-v0"}`))
	if err == nil || !strings.Contains(err.Error(), `schema "pargraph-manifest-v0"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestLogConflict(t *testing.T) {
	var l Log
	l.Add(input("gnm/64/128/1", []byte("one")))
	l.Add(input("gnm/64/128/1", []byte("one"))) // benign repeat
	if _, err := l.Inputs(); err != nil {
		t.Fatalf("benign repeat errored: %v", err)
	}
	l.Add(input("gnm/64/128/1", []byte("two")))
	_, err := l.Inputs()
	if err == nil || !strings.Contains(err.Error(), `input "gnm/64/128/1" resolved twice with different content`) {
		t.Fatalf("err = %v", err)
	}
}

func TestMerge(t *testing.T) {
	a := sample()
	b := sample()
	b.Inputs = append(b.Inputs[:1:1], Input{Key: "rmat/11/100/2", SHA256: "ffff", Bytes: 4})
	b.Artifacts = nil
	merged, err := Merge([]*Manifest{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Inputs) != 3 {
		t.Errorf("merged inputs = %+v", merged.Inputs)
	}
	if len(merged.Artifacts) != 0 {
		t.Errorf("merge must not carry artifacts, got %+v", merged.Artifacts)
	}

	// Spec-hash disagreement fails loudly.
	c := sample()
	c.SpecSHA256 = "other"
	_, err = Merge([]*Manifest{a, c})
	if err == nil || !strings.Contains(err.Error(), "shard 1 ran spec other, shard 0 ran abc123") {
		t.Fatalf("err = %v", err)
	}

	// Input-content disagreement fails loudly.
	d := sample()
	d.Inputs[0].SHA256 = "0000"
	_, err = Merge([]*Manifest{a, d})
	if err == nil || !strings.Contains(err.Error(), `shards disagree on input "gnm/64/128/1"`) {
		t.Fatalf("err = %v", err)
	}

	// Input-schema disagreement fails loudly.
	e := sample()
	e.InputSchema = "pargraph-inputs-v0"
	_, err = Merge([]*Manifest{a, e})
	if err == nil || !strings.Contains(err.Error(), `input schema "pargraph-inputs-v0"`) {
		t.Fatalf("err = %v", err)
	}
}

func FuzzManifestDecode(f *testing.F) {
	if data, err := sample().Encode(); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"schema": "pargraph-manifest-v1"}`))
	f.Add([]byte(`{"schema": "pargraph-manifest-v1", "inputs": [{"key": "a", "sha256": "ff", "bytes": 1}]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// decode → encode → decode must be a fixpoint: the first encode
		// normalizes (sorted inputs, no unknown fields), after which the
		// bytes are stable.
		e1, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded manifest does not re-encode: %v", err)
		}
		m2, err := Decode(e1)
		if err != nil {
			t.Fatalf("encoded manifest does not re-decode: %v\n%s", err, e1)
		}
		e2, err := m2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("encode is not a fixpoint:\n%s\nvs\n%s", e1, e2)
		}
	})
}
