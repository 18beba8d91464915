(** Seeded generators for random conformance cases.

    Each family produces a model whose parameters and inputs stay inside the
    numeric envelope the quantized deployment paths can represent (16-bit
    keys at the 8.8 fixed-point scale saturate beyond |x| = 128), so every
    cross-backend disagreement the oracle reports is a semantic divergence,
    not an encoding overflow the generator provoked on purpose. KMeans
    cases use signed, well-separated centroids, so cluster cells and inputs
    cross zero. *)

type family = Mlp | Tree | Forest | Svm | Kmeans

val all_families : family list
val family_to_string : family -> string

val case : Homunculus_util.Rng.t -> family -> Case.t
(** One random (model, input batch) pair. [Mlp] draws random shapes and
    hidden activations; [Tree] builds random split structures; [Forest]
    fits a bagged CART tree on synthetic blob data (realistic fitted
    thresholds, as opposed to [Tree]'s structural randomness); [Svm] draws
    Gaussian class weights; [Kmeans] places separated centroids and samples
    inputs around them. *)
