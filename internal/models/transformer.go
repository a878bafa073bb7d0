package models

import "fmt"

// TransformerSpec describes a decoder-only LLaMa-style transformer.
type TransformerSpec struct {
	// Name identifies the model, e.g. "llama2-7b".
	Name string
	// Layers is the number of transformer blocks.
	Layers int
	// DModel is the hidden dimension.
	DModel int
	// Heads is the number of attention heads.
	Heads int
	// KVHeads is the number of key/value heads (grouped-query
	// attention); equals Heads for classic multi-head attention.
	KVHeads int
	// FFNDim is the SwiGLU feed-forward inner dimension.
	FFNDim int
	// Vocab is the vocabulary size.
	Vocab int
	// MaxContext is the maximum context length.
	MaxContext int
}

// LLaMa27B returns the 7-billion-parameter LLaMa-2 spec.
func LLaMa27B() TransformerSpec {
	return TransformerSpec{
		Name: "llama2-7b", Layers: 32, DModel: 4096, Heads: 32, KVHeads: 32,
		FFNDim: 11008, Vocab: 32000, MaxContext: 4096,
	}
}

// LLaMa213B returns the 13-billion-parameter LLaMa-2 spec.
func LLaMa213B() TransformerSpec {
	return TransformerSpec{
		Name: "llama2-13b", Layers: 40, DModel: 5120, Heads: 40, KVHeads: 40,
		FFNDim: 13824, Vocab: 32000, MaxContext: 4096,
	}
}

// LLaMa270B returns the 70-billion-parameter LLaMa-2 spec (grouped
// query attention with 8 KV heads).
func LLaMa270B() TransformerSpec {
	return TransformerSpec{
		Name: "llama2-70b", Layers: 80, DModel: 8192, Heads: 64, KVHeads: 8,
		FFNDim: 28672, Vocab: 32000, MaxContext: 4096,
	}
}

// headDim returns the per-head dimension.
func (s TransformerSpec) headDim() int { return s.DModel / s.Heads }

// kvDim returns the total key/value projection width.
func (s TransformerSpec) kvDim() int { return s.KVHeads * s.headDim() }

// Params returns the learnable parameter count: token embedding, LM
// head, per-layer attention (Q, K, V, O) and SwiGLU FFN (gate, up,
// down), plus RMSNorm weights.
func (s TransformerSpec) Params() int64 {
	d := int64(s.DModel)
	embed := int64(s.Vocab) * d // token embedding
	head := int64(s.Vocab) * d  // untied LM head
	attn := d*d + 2*d*int64(s.kvDim()) + d*d
	ffn := 3 * d * int64(s.FFNDim)
	norms := 2 * d
	perLayer := attn + ffn + norms
	return embed + head + int64(s.Layers)*perLayer + d /* final norm */
}

// WeightBytes returns parameter memory at the given element size
// (2 for fp16, 4 for fp32).
func (s TransformerSpec) WeightBytes(bytesPerParam int) int64 {
	return s.Params() * int64(bytesPerParam)
}

// KVCacheBytesPerToken returns key+value cache growth per generated
// token at the given element size.
func (s TransformerSpec) KVCacheBytesPerToken(bytesPerParam int) int64 {
	return int64(s.Layers) * 2 * int64(s.kvDim()) * int64(bytesPerParam)
}

// DecodeFLOPsPerToken returns forward FLOPs to generate one token at
// the given context length: ≈ 2·params for the weight matmuls plus the
// attention over the KV cache.
func (s TransformerSpec) DecodeFLOPsPerToken(ctxLen int) float64 {
	weightFLOPs := 2 * float64(s.Params())
	// Attention scores + value gather: 2 matmuls of d×ctx per layer.
	attnFLOPs := float64(s.Layers) * 2 * 2 * float64(s.DModel) * float64(ctxLen)
	return weightFLOPs + attnFLOPs
}

// PrefillFLOPs returns forward FLOPs to process a prompt of the given
// length (token-parallel, so ≈ promptLen × per-token weight FLOPs).
func (s TransformerSpec) PrefillFLOPs(promptLen int) float64 {
	return 2 * float64(s.Params()) * float64(promptLen)
}

// LayerCost is one transformer sublayer's per-token decode cost.
type LayerCost struct {
	Name   string
	GFLOPs float64
	// Bytes is the weight traffic the sublayer streams per token.
	Bytes int64
}

// DecodeLayerProfile returns per-sublayer decode FLOPs for one token —
// the transformer counterpart of the CNN profile behind Fig. 1. Unlike
// CNNs, the per-layer cost is uniform across depth: the partitioning
// consequence is that an LLM's SM demand is flat over time, making a
// fixed partition size (Fig. 2's knee) well-defined.
func (s TransformerSpec) DecodeLayerProfile(bytesPerParam int) []LayerCost {
	d := int64(s.DModel)
	kv := int64(s.kvDim())
	var out []LayerCost
	add := func(name string, params int64) {
		out = append(out, LayerCost{
			Name:   name,
			GFLOPs: 2 * float64(params) / 1e9,
			Bytes:  params * int64(bytesPerParam),
		})
	}
	add("embed", d) // one row gather per token
	for l := 0; l < s.Layers; l++ {
		prefix := fmt.Sprintf("layer%d.", l)
		add(prefix+"attn.q", d*d)
		add(prefix+"attn.k", d*kv)
		add(prefix+"attn.v", d*kv)
		add(prefix+"attn.o", d*d)
		add(prefix+"ffn.gate", d*int64(s.FFNDim))
		add(prefix+"ffn.up", d*int64(s.FFNDim))
		add(prefix+"ffn.down", d*int64(s.FFNDim))
	}
	add("lm_head", int64(s.Vocab)*d)
	return out
}
