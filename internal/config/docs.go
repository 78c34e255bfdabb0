package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// BaseDocs holds the documents of one config directory: the five required
// ones plus the optional faults.json and control.json (nil when absent).
// The chaos harness reads them once and assembles many simulations from
// them — same cluster, varied seeds and fault plans — without re-touching
// the filesystem per trial.
type BaseDocs struct {
	Machines []byte
	Services []byte
	Graph    []byte
	Paths    []byte
	Client   []byte
	Faults   []byte
	Control  []byte
}

// docNames is the config directory layout, in the order ReadBase reads
// and HashDir fingerprints it. The first requiredDocs are mandatory.
var docNames = [...]string{
	"machines.json", "service.json", "graph.json", "path.json",
	"client.json", "faults.json", "control.json",
}

const requiredDocs = 5

// slots returns d's fields in docNames order.
func (d *BaseDocs) slots() [len(docNames)]*[]byte {
	return [...]*[]byte{&d.Machines, &d.Services, &d.Graph, &d.Paths, &d.Client, &d.Faults, &d.Control}
}

// ReadBase reads every document of dir. It is the only code that knows
// which files a config directory holds.
func ReadBase(dir string) (*BaseDocs, error) {
	d := &BaseDocs{}
	for i, slot := range d.slots() {
		b, err := os.ReadFile(filepath.Join(dir, docNames[i]))
		if i >= requiredDocs && os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("config: reading %s: %w", docNames[i], err)
		}
		*slot = b
	}
	return d, nil
}

// Assemble builds a simulation from the documents. An explicit faults
// document replaces d.Faults; d.Control, when present, attaches the
// self-healing control plane as Setup.Plane.
func (d *BaseDocs) Assemble(faultsJSON ...[]byte) (*Setup, error) {
	if len(faultsJSON) == 0 && d.Faults != nil {
		faultsJSON = [][]byte{d.Faults}
	}
	setup, err := Assemble(d.Machines, d.Services, d.Graph, d.Paths, d.Client, faultsJSON...)
	if err != nil || d.Control == nil {
		return setup, err
	}
	if setup.Plane, err = ApplyControl(setup.Sim, d.Control); err != nil {
		return nil, err
	}
	return setup, nil
}

// WithSeed returns a copy with the client document's seed replaced.
func (d *BaseDocs) WithSeed(seed uint64) (*BaseDocs, error) {
	var cf ClientFile
	if err := decodeStrict("client.json", d.Client, &cf); err != nil {
		return nil, err
	}
	cf.Seed = seed
	client, err := json.Marshal(&cf)
	if err != nil {
		return nil, fmt.Errorf("config: re-encoding client.json: %w", err)
	}
	out := *d
	out.Client = client
	return &out, nil
}

// HashDir fingerprints the complete configuration set of dir, every
// document ReadBase knows. The farm journals this hash into every job
// spec so a spool can never be resumed against a drifted configuration
// without noticing — a result is only meaningful for the exact bytes it
// was computed from.
func HashDir(dir string) (string, error) {
	h := sha256.New()
	for _, name := range docNames {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			// Missing documents simply contribute their absence.
			fmt.Fprintf(h, "%s\x00absent\x00", name)
			continue
		}
		if err != nil {
			return "", fmt.Errorf("config: hashing %s: %w", dir, err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}
