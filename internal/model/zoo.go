package model

import (
	"fmt"
	"sort"
	"strings"

	"rtmap/internal/tensor"
)

// Config parameterizes the model zoo builders.
type Config struct {
	ActBits  int     // activation precision (4 or 8 in the paper)
	Sparsity float64 // target ternary weight sparsity (Table II: 0.8/0.85/0.9)
	Seed     uint64  // weight generation seed (deterministic)
}

// DefaultConfig returns the headline configuration of the paper:
// 4-bit activations and 0.8 sparsity.
func DefaultConfig() Config { return Config{ActBits: 4, Sparsity: 0.8, Seed: 1} }

// Validate reports a build point the builders cannot realize: activation
// bits outside 2..8 or sparsity outside [0, 1).
func (c Config) Validate() error {
	if c.ActBits < 2 || c.ActBits > 8 {
		return fmt.Errorf("model: activation bits %d out of range 2..8", c.ActBits)
	}
	if c.Sparsity < 0 || c.Sparsity >= 1 {
		return fmt.Errorf("model: sparsity %v out of range [0,1)", c.Sparsity)
	}
	return nil
}

// Input shapes of the zoo networks, each written once: the builders and
// the zoo table read them.
var (
	resnet18Input   = tensor.Shape{N: 1, C: 3, H: 224, W: 224}
	cifar10Input    = tensor.Shape{N: 1, C: 3, H: 32, W: 32} // vgg9, vgg11, miniresnet18
	tinyCNNInput    = tensor.Shape{N: 1, C: 2, H: 8, W: 8}
	tinyResNetInput = tensor.Shape{N: 1, C: 3, H: 8, W: 8}
)

// zooEntry is one named network: its input shape, known without
// building weights, and its builder.
type zooEntry struct {
	shape tensor.Shape
	build func(Config) *Network
}

// zoo is every network the tools, the serving tier and the tests name:
// the paper's Table II networks, ResNet-18 at CIFAR-10 resolution, and
// two small test networks.
var zoo = map[string]zooEntry{
	"resnet18": {resnet18Input, ResNet18},
	"miniresnet18": {cifar10Input, func(c Config) *Network {
		return MiniResNet18(c, cifar10Input.H, cifar10Input.W)
	}},
	"vgg9":       {cifar10Input, VGG9},
	"vgg11":      {cifar10Input, VGG11},
	"tinycnn":    {tinyCNNInput, TinyCNN},
	"tinyresnet": {tinyResNetInput, TinyResNet},
}

// ZooNames returns the zoo's network names, sorted.
func ZooNames() []string {
	out := make([]string, 0, len(zoo))
	for name := range zoo {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ZooShape returns the input shape of a zoo network.
func ZooShape(name string) (tensor.Shape, bool) {
	z, ok := zoo[name]
	return z.shape, ok
}

// Build builds the named zoo network at cfg. Unlike the exported
// builders, which panic, it returns an error for an unknown name (listing
// the zoo) or an out-of-range cfg.
func Build(name string, cfg Config) (*Network, error) {
	z, ok := zoo[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown model %q (zoo: %s)", name, strings.Join(ZooNames(), "|"))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return z.build(cfg), nil
}
