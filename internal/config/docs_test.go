package config

import (
	"os"
	"path/filepath"
	"testing"
)

// shippedConfigs lists every config directory under configs/.
func shippedConfigs(t *testing.T) []string {
	t.Helper()
	dirs, err := filepath.Glob("../../configs/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no shipped configs found")
	}
	return dirs
}

// ReadBase carries the optional documents exactly when the files exist.
func TestReadBaseOptionalDocs(t *testing.T) {
	for _, dir := range shippedConfigs(t) {
		docs, err := ReadBase(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, got := range map[string][]byte{"faults.json": docs.Faults, "control.json": docs.Control} {
			_, statErr := os.Stat(filepath.Join(dir, name))
			if exists := statErr == nil; exists != (got != nil) {
				t.Errorf("%s: %s exists=%v but document set=%v", dir, name, exists, got != nil)
			}
		}
	}
}

func TestLoadDirAttachesControlPlane(t *testing.T) {
	setup, err := LoadDir("../../configs/threeregion")
	if err != nil {
		t.Fatal(err)
	}
	if setup.Plane == nil {
		t.Fatal("threeregion has a control.json but LoadDir attached no plane")
	}
}

// An explicit faults document replaces the directory's faults.json.
func TestAssembleExplicitFaultsReplaceDirectory(t *testing.T) {
	docs, err := ReadBase("../../configs/metastable")
	if err != nil {
		t.Fatal(err)
	}
	if docs.Faults == nil {
		t.Fatal("metastable ships a faults.json")
	}
	if _, err := docs.Assemble([]byte(`{"polices": []}`)); err == nil {
		t.Fatal("explicit faults document was not used")
	}
	if _, err := docs.Assemble(); err != nil {
		t.Fatal(err)
	}
}

// The farm journals HashDir into every job spec, so the fingerprints of
// the shipped configs must not drift.
func TestHashDirPinned(t *testing.T) {
	want := map[string]string{
		"twotier":     "23b3d671529b1f189ab602e414b7c50e",
		"threetier":   "16c7f8412cbf3d1af7326644889d03b3",
		"metastable":  "d0a1ad1ad60fe9a812166c824cebc601",
		"robust":      "4b9777eb70c0db95be52d8c48d115987",
		"threeregion": "149ae3d8a378edf492c8ffcee9edf55c",
	}
	for name, hash := range want {
		got, err := HashDir(filepath.Join("../../configs", name))
		if err != nil {
			t.Fatal(err)
		}
		if got != hash {
			t.Errorf("HashDir(%s) = %s, want %s", name, got, hash)
		}
	}
}
