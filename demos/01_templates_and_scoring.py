"""Token-level scoring on a pocket-sized world.

A two-object world is enough to see the asymmetry the package is built
around: an autoregressive scorer reads a sentence token by token, so the
same bag of words can be cheap in one order and expensive in another,
while a bag-of-words embedder cannot tell the two apart.
"""

from genret import (
    OracleBackend,
    WorldSpec,
    canonical_templates,
    caption_process,
    contrastive_loss,
    generative_loss,
    render,
    sample_scenes,
)


def main():
    spec = WorldSpec(
        objects=("cat", "towel"),
        attributes=("orange", "small", "wet"),
        compatibility={"cat": ("orange", "small"), "towel": ("wet",)},
        attribute_prior={
            ("cat", "orange"): 0.9,
            ("cat", "small"): 0.5,
            ("towel", "wet"): 0.8,
        },
        rng_seed=6,
    )
    scene = sample_scenes(spec, [2])[0]
    print(f"scene {scene.image_id}:")
    for ent in scene.entities:
        print(f"  {ent.obj} {list(ent.attributes)}")

    print("\ncaption process (token sequence : probability mass):")
    for caption, mass in sorted(caption_process(scene).items()):
        print(f"  {' '.join(caption):24s} {mass}")

    print("\ncanonical templates rendered for obj=cat, attribute=orange:")
    for t in canonical_templates():
        print(f"  {t.name:16s} -> {render(t, obj='cat', attribute='orange')}")

    backend = OracleBackend(spec, [scene], smoothing=1e-6)
    fluent = ("orange", "cat")
    scrambled = ("cat", "orange")
    for sentence in (fluent, scrambled):
        g = generative_loss(backend, scene.image_id, None, sentence)
        terms = " + ".join(f"{x:.3f}" for x in g.per_token)
        print(f"\ngenerative loss of {sentence}: {g.value:.3f} nats")
        print(f"  per position (terminal last): {terms}")

    c1 = contrastive_loss(backend, scene.image_id, None, fluent)
    c2 = contrastive_loss(backend, scene.image_id, None, scrambled)
    print(f"\ncontrastive distance, both orders: {c1.value:.6f} vs {c2.value:.6f}")
    print("the embedder counts tokens, so permutations are invisible to it")


if __name__ == "__main__":
    main()
