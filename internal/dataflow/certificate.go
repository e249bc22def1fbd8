package dataflow

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"rtmap/internal/core"
	"rtmap/internal/verify"
)

// CertVersion is the PlanCertificate format version. Bump on any change
// to the facts a certificate records; stored certificates of another
// version never validate, so stale formats re-verify instead of being
// trusted.
const CertVersion = 1

// LayerFact is one certified cross-layer fact: the value interval and
// storage format of a layer's output activations, plus the proved-safe
// accumulator width for conv/linear layers. These are the strengthened
// ranges downstream consumers (serve admission today, the bit-sliced
// JIT interpreter tomorrow) may assume without re-deriving.
type LayerFact struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	Class    string `json:"class"`
	Lo       int64  `json:"lo"`
	Hi       int64  `json:"hi"`
	Bits     int    `json:"bits"`
	Unsigned bool   `json:"unsigned"`
	AccWidth int    `json:"acc_width,omitempty"`
}

// Certificate is the machine-readable record of the admission proof:
// the artifact it certifies (content-addressed through
// core.ArtifactHash), how many tile programs the audit covered, and the
// per-layer facts. A certificate is stored (VerifyOrCertify) or written
// (rtmap-vet -certs-out) only for an artifact both passes of the proof
// were clean on — the plan audit (core.VerifyCompiled) and the seam
// check (Check) — so holding one is holding the proof.
type Certificate struct {
	Version  int         `json:"version"`
	Artifact string      `json:"artifact"`
	Model    string      `json:"model"`
	Programs int         `json:"programs"`
	Layers   []LayerFact `json:"layers"`
}

// newCertificate records the derived facts of a clean artifact.
func newCertificate(comp *core.Compiled, bands []band) *Certificate {
	cert := &Certificate{
		Version:  CertVersion,
		Artifact: hex.EncodeToString(artifactKey(comp)),
		Model:    modelName(comp),
	}
	for i, plan := range comp.Layers {
		fact := LayerFact{
			Index: i, Name: plan.Name, Class: plan.Class.String(),
			Lo: bands[i].Lo, Hi: bands[i].Hi,
			Bits: bands[i].Bits, Unsigned: bands[i].Unsigned,
		}
		if plan.Class == core.ClassConv {
			fact.AccWidth = plan.AccWidth
		}
		cert.Layers = append(cert.Layers, fact)
		for s := range plan.StripPlans {
			cert.Programs += len(plan.StripPlans[s].Programs)
		}
	}
	return cert
}

// artifactKey returns the artifact hash as a byte slice.
func artifactKey(comp *core.Compiled) []byte {
	key := core.ArtifactHash(comp)
	return key[:]
}

// Encode serializes the certificate as indented JSON — the format
// rtmap-vet -certs-out writes and CI uploads.
func (c *Certificate) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dataflow: encoding certificate: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeCertificate parses an encoded certificate. Decoding performs
// only structural validation; call Validate against the compiled
// artifact to check the facts.
func DecodeCertificate(data []byte) (*Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("dataflow: decoding certificate: %w", err)
	}
	if c.Version <= 0 || c.Artifact == "" {
		return nil, fmt.Errorf("dataflow: certificate missing version or artifact hash")
	}
	return &c, nil
}

// Validate re-runs the admission proof over comp and proves the
// certificate matches: same format version, same artifact hash, and
// fact-for-fact identical derived ranges. Any disagreement — a
// corrupted certificate, or one that certifies a different artifact —
// is a *verify.Error under the dataflow-certificate invariant.
func (c *Certificate) Validate(comp *core.Compiled) error {
	fresh, err := prove(comp)
	if err != nil {
		return err
	}
	var diags []verify.Diagnostic
	flag := func(layer int, format string, args ...any) {
		diags = append(diags, verify.Diagnostic{
			Model: modelName(comp), Layer: layer, Strip: -1, Tile: -1, Op: -1,
			Invariant: InvCertificate, Detail: fmt.Sprintf(format, args...),
		})
	}
	if c.Version != fresh.Version {
		flag(-1, "certificate version %d, verifier emits %d", c.Version, fresh.Version)
	}
	if c.Artifact != fresh.Artifact {
		flag(-1, "certificate is for artifact %s, compiled artifact is %s", c.Artifact, fresh.Artifact)
	}
	if c.Model != fresh.Model {
		flag(-1, "certificate names model %q, artifact is %q", c.Model, fresh.Model)
	}
	if c.Programs != fresh.Programs {
		flag(-1, "certificate covers %d programs, artifact has %d", c.Programs, fresh.Programs)
	}
	if len(c.Layers) != len(fresh.Layers) {
		flag(-1, "certificate records %d layer facts, artifact has %d layers", len(c.Layers), len(fresh.Layers))
	} else {
		for i := range c.Layers {
			if c.Layers[i] != fresh.Layers[i] {
				flag(i, "layer fact %+v disagrees with derived %+v", c.Layers[i], fresh.Layers[i])
			}
		}
	}
	if len(diags) == 0 {
		return nil
	}
	e := &verify.Error{Diags: diags}
	e.Sort()
	return e
}

// VerifyOrCertify is the admission proof. A stored certificate for the
// artifact's content hash is trusted as the proof (hit=true) and neither
// pass runs. Otherwise the artifact is proved from scratch — the plan
// audit and the seam check, see prove — and, when both are clean, its
// fresh certificate is stored for the next admission. A nil cache
// degrades to the plain proof.
func VerifyOrCertify(comp *core.Compiled, cache *core.Cache) (*Certificate, bool, error) {
	var key [32]byte
	if cache != nil {
		key = core.ArtifactHash(comp)
		if stored, ok := cache.GetCertificate(key); ok {
			if cert, ok := stored.(*Certificate); ok && cert.Version == CertVersion {
				return cert, true, nil
			}
		}
	}
	cert, err := prove(comp)
	if err != nil {
		return nil, false, err
	}
	if cache != nil {
		cache.PutCertificate(key, cert)
	}
	return cert, false, nil
}

// prove runs both passes of the admission proof over comp: the plan
// audit (core.VerifyCompiled: every tile program's ExecPlan, and its cut
// into parts) and the seam check (Check). Both always run, so a refuted
// artifact yields one *verify.Error with the located diagnostics of both
// in canonical order; the certificate comes back only when both are
// clean.
func prove(comp *core.Compiled) (*Certificate, error) {
	audit := core.VerifyCompiled(comp)
	cert, check := Check(comp)
	var diags []verify.Diagnostic
	for _, err := range []error{audit, check} {
		var ve *verify.Error
		switch {
		case err == nil:
		case errors.As(err, &ve):
			diags = append(diags, ve.Diags...)
		default:
			return nil, err
		}
	}
	if len(diags) > 0 {
		e := &verify.Error{Diags: diags}
		e.Sort()
		return nil, e
	}
	return cert, nil
}
