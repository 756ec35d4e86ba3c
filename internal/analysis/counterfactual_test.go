package analysis

import (
	"testing"
)

func TestROVCounterfactual(t *testing.T) {
	_, p := pipeline(t)
	rov := p.ROVCounterfactual()

	totalHijacks := rov.HijacksBlocked + rov.HijacksAccepted + rov.HijacksUncovered + rov.HijacksUnrouted
	if totalHijacks != 134 {
		t.Errorf("hijack total = %d, want 134 non-incident", totalHijacks)
	}
	// The paper's core finding: hijackers target unsigned space, so ROV
	// is silent (NotFound) for the overwhelming majority.
	if rov.HijacksUncovered < 100 {
		t.Errorf("uncovered hijacks = %d, expected the vast majority", rov.HijacksUncovered)
	}
	// Exactly one hijack was RPKI-valid (the case study); the two
	// attacker-controlled ROAs also validate (the attacker made sure).
	if rov.HijacksAccepted != 3 {
		t.Errorf("accepted (valid) hijacks = %d, want 3", rov.HijacksAccepted)
	}
	if rov.HijacksBlocked != 0 {
		t.Errorf("blocked hijacks = %d; no hijack should be invalid in this world", rov.HijacksBlocked)
	}

	// Squats: production TALs never cover free-pool space; the AS0 TALs
	// cover squats listed after the policy dates.
	if rov.SquatsTotal != 40 {
		t.Errorf("squats = %d", rov.SquatsTotal)
	}
	if rov.SquatsBlockedDefault != 0 {
		t.Errorf("default TALs blocked %d squats; should be 0", rov.SquatsBlockedDefault)
	}
	if rov.SquatsBlockedWithAS0 == 0 {
		t.Error("AS0 TALs should block the post-policy squats")
	}
	if rov.SquatsBlockedWithAS0 >= rov.SquatsTotal {
		t.Error("pre-policy squats cannot be blocked by later AS0 ROAs")
	}
}

func TestAS0WhatIf(t *testing.T) {
	_, p := pipeline(t)
	a := p.AS0WhatIf()
	if a.VulnerableSpace == 0 {
		t.Fatal("no vulnerable signed-unrouted space")
	}
	// The three big organizations dominate (paper: 70.1%).
	share := float64(a.RemediedByTop3) / float64(a.VulnerableSpace)
	if share < 0.5 || share > 0.9 {
		t.Errorf("top-3 share = %.3f, want ≈0.70", share)
	}
	// Unsigned-unrouted space dwarfs the signed-unrouted surface
	// (paper: 30 /8 vs 6.7 /8).
	if a.UnsignedUnroutedSpace <= a.VulnerableSpace {
		t.Errorf("unsigned-unrouted (%d) should exceed signed-unrouted (%d)",
			a.UnsignedUnroutedSpace, a.VulnerableSpace)
	}
}

func TestMaxLengthAnalysis(t *testing.T) {
	_, p := pipeline(t)
	m := p.MaxLengthAnalysis()
	if m.ROAs == 0 {
		t.Fatal("no ROAs")
	}
	if m.LooseMaxLength == 0 {
		t.Fatal("no loose-maxLength ROAs; generator should emit ~35%")
	}
	frac := float64(m.LooseMaxLength) / float64(m.ROAs)
	if frac < 0.15 || frac > 0.55 {
		t.Errorf("loose fraction = %.3f, want ≈0.35", frac)
	}
	// Nearly all loose ROAs cover routed prefixes whose sub-prefixes are
	// unannounced: forgeable (Gilad et al.: 84%).
	vulnFrac := float64(m.VulnerableLoose) / float64(m.LooseMaxLength)
	if vulnFrac < 0.7 {
		t.Errorf("vulnerable-loose fraction = %.3f, want high", vulnFrac)
	}
	if m.ForgeableSpace == 0 {
		t.Error("no forgeable space computed")
	}
}

func TestPathEndCounterfactual(t *testing.T) {
	_, p := pipeline(t)
	pe := p.PathEndWithCase(p.Fig4RPKIValidHijacks().CasePrefix)
	if pe.RecordsBuilt == 0 {
		t.Fatal("no path-end records enrolled")
	}
	total := pe.HijacksInvalid + pe.HijacksValid + pe.HijacksNotFound + pe.HijacksUnrouted
	if total != 134 {
		t.Errorf("hijack total = %d, want 134", total)
	}
	// The RPKI-valid hijack has an enrolled owner (it was routed at
	// window start via its legitimate transit): path-end catches it.
	if !pe.CaseStudyCaught {
		t.Error("case-study hijack not caught by path-end validation")
	}
	if pe.HijacksInvalid == 0 {
		t.Error("no hijacks caught")
	}
	// Most hijacked space is abandoned: no one enrolled, validation is
	// silent — deployment dependence, the paper's caveat.
	if pe.HijacksNotFound < pe.HijacksInvalid {
		t.Errorf("expected notfound (%d) to dominate invalid (%d)",
			pe.HijacksNotFound, pe.HijacksInvalid)
	}
}

func TestSerialHijackers(t *testing.T) {
	_, p := pipeline(t)
	// Serial hijackers: several prefixes, mostly blocklisted, announced
	// briefly (median span under a year).
	profiles := p.SerialHijackers(3, 0.5, 365)
	if len(profiles) == 0 {
		t.Fatal("no serial hijackers profiled")
	}
	for _, prof := range profiles {
		// Operators announcing for the whole window are excluded by the
		// span criterion even when their space is listed.
		if prof.Origin >= 64500 && prof.Origin < 64900 {
			t.Errorf("persistent operator %v profiled as serial hijacker (%+v)", prof.Origin, prof)
		}
	}
	// The attacker pool (213000+) dominates the profile list.
	attackers := 0
	for _, prof := range profiles {
		if prof.Origin >= 213000 && prof.Origin < 213100 {
			attackers++
		}
	}
	if attackers < len(profiles)/2 {
		t.Errorf("attacker ASes = %d of %d profiles", attackers, len(profiles))
	}
}

func TestMOASSweep(t *testing.T) {
	_, p := pipeline(t)
	rep := p.MOASSweep()
	if len(rep.Samples) < 30 {
		t.Fatalf("samples = %d", len(rep.Samples))
	}
	// The case-study hijack re-originates 132.255.0.0/22 with the owner
	// ASN after withdrawal — no MOAS there. But forged-origin hijacks of
	// still-announced prefixes are rare in this world, so conflicts should
	// be low but the machinery must at least run and be consistent.
	for _, s := range rep.Samples {
		if s.Listed > s.Conflicts {
			t.Fatalf("listed %d > conflicts %d", s.Listed, s.Conflicts)
		}
	}
}

func TestMOASConflictsPresent(t *testing.T) {
	_, p := pipeline(t)
	rep := p.MOASSweep()
	peak := 0
	for _, s := range rep.Samples {
		if s.Conflicts > peak {
			peak = s.Conflicts
		}
	}
	if peak == 0 {
		t.Error("the world plants active-space hijacks; MOAS sweep should see conflicts")
	}
}
