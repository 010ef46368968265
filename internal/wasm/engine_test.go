package wasm

import (
	"strings"
	"testing"
)

func TestEngineNames(t *testing.T) {
	for e, name := range map[Engine]string{
		EngineSuperblock: "super", EngineInterp: "interp", EngineRegister: "reg", EngineAOT: "aot",
	} {
		if e.String() != name {
			t.Errorf("Engine(%d).String() = %q, want %q", int(e), e, name)
		}
		if got, err := ParseEngine(name); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	for _, e := range []Engine{-1, 4} {
		if e.Valid() || !strings.HasPrefix(e.String(), "engine(") {
			t.Errorf("Engine(%d): Valid=%v String=%q, want an invalid engine(N)", int(e), e.Valid(), e)
		}
		if _, err := ParseEngine(e.String()); err == nil {
			t.Errorf("ParseEngine(%q) succeeded", e)
		}
	}
}

// TestTranslateIsEagerAndExact: Translate derives exactly the forms the
// named engine executes — so a loader that calls it pays for translation
// and no instantiation does — and an engine outside the four tiers is an
// error at both doors, never a silent fallback.
func TestTranslateIsEagerAndExact(t *testing.T) {
	mod, err := Decode(servingModule())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Translate(EngineRegister); err != nil {
		t.Fatal(err)
	}
	if c.regFuncs == nil || c.aotFuncs == nil {
		t.Error("Translate(reg) left part of the register stack untranslated")
	}
	if c.superFuncs != nil {
		t.Error("Translate(reg) also translated the superblock form")
	}
	if err := c.Translate(EngineSuperblock); err != nil {
		t.Fatal(err)
	}
	if c.superFuncs == nil {
		t.Error("Translate(super) left the superblock form untranslated")
	}
	if err := c.Translate(Engine(4)); err == nil {
		t.Error("Translate accepted engine(4)")
	}
	if _, err := Instantiate(c, nil, Config{Engine: Engine(4)}); err == nil {
		t.Error("Instantiate accepted engine(4)")
	}
}
