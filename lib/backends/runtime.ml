module Decision_tree = Homunculus_ml.Decision_tree

(* The one fixed-point key function: [v] rounded half away from zero and
   saturated to the signed 16-bit key range; NaN maps to 0. Table keys
   built in [entries] and packet keys built in [encode_into] both come from
   here. Inside the range, truncation is exact and so is [v - t] (both are
   below 2^15), and the two comparisons turn into flag-to-integer moves, so
   the common case has no C call and no data-dependent branch. Wherever
   [int_of_float (Float.round v)] is defined (finite |v| < 2^62) the key is
   that value clamped; beyond it, and at the infinities, the key saturates. *)
let[@inline] key v =
  if v >= 32767.5 then 32767
  else if v > -32768.5 then
    let t = int_of_float v in
    let d = v -. float_of_int t in
    t + Bool.to_int (d >= 0.5) - Bool.to_int (d <= -0.5)
  else if v <= -32768.5 then -32768
  else 0 (* NaN *)

let quantize_scaled scale v = key (v *. scale)

let quantize v = quantize_scaled 256. v

type t = {
  tables : P4_ir.tables;
  n_features : int;
  scales : float array;
  mutable misses : int;  (* k-means packets that took the default step *)
}

(* Per-feature key scale: cover the calibration sample's range (with 2x
   headroom) across the 16-bit key space; fall back to 8.8 fixed point. *)
let choose_scales ~calibration ~n_features =
  match calibration with
  | None -> Array.make n_features 256.
  | Some samples ->
      if Array.exists (fun row -> Array.length row <> n_features) samples then
        invalid_arg "Runtime.load: calibration dimension mismatch";
      Array.init n_features (fun f ->
          let max_abs = ref 1e-9 in
          Array.iter
            (fun row ->
              let v = Float.abs row.(f) in
              if v > !max_abs then max_abs := v)
            samples;
          32767. /. (2. *. !max_abs))

let tables_of ~entries_per_feature ~calibration ~scales model =
  let n_features = Array.length scales in
  match model with
  | Model_ir.Dnn _ ->
      invalid_arg "Runtime.load: DNNs do not map to MATs (binarize first)"
  | Model_ir.Kmeans { centroids; _ } as km ->
      let cells =
        match calibration with
        | Some samples when Array.length samples > 0 ->
            (* IIsy-style: derive each cluster's cell from the training
               points it wins, with a 10% span margin. *)
            let k = Array.length centroids in
            let lo = Array.make_matrix k n_features infinity in
            let hi = Array.make_matrix k n_features neg_infinity in
            Array.iter
              (fun row ->
                let c = Inference.predict km row in
                Array.iteri
                  (fun f v ->
                    if v < lo.(c).(f) then lo.(c).(f) <- v;
                    if v > hi.(c).(f) then hi.(c).(f) <- v)
                  row)
              samples;
            Array.mapi
              (fun c centroid ->
                Array.mapi
                  (fun f coord ->
                    if lo.(c).(f) > hi.(c).(f) then begin
                      (* Cluster won no calibration point: degenerate cell
                         around the centroid. *)
                      let center = quantize_scaled scales.(f) coord in
                      (center, center)
                    end
                    else
                      let margin = 0.1 *. (hi.(c).(f) -. lo.(c).(f)) in
                      ( quantize_scaled scales.(f) (lo.(c).(f) -. margin),
                        quantize_scaled scales.(f) (hi.(c).(f) +. margin) ))
                  centroid)
              centroids
        | Some _ | None ->
            (* No calibration: fixed-width cells around each centroid,
               clipped to the key range (no key lies outside it). *)
            let half = 65536 / (2 * entries_per_feature) in
            Array.map
              (fun centroid ->
                Array.mapi
                  (fun f coord ->
                    let center = quantize_scaled scales.(f) coord in
                    (max (-32768) (center - half), min 32767 (center + half)))
                  centroid)
              centroids
      in
      P4_ir.Kmeans_cells
        {
          cells;
          centroids =
            Array.map
              (Array.mapi (fun f c -> quantize_scaled scales.(f) c))
              centroids;
        }
  | Model_ir.Svm { class_weights; biases; _ } ->
      if Array.exists (fun w -> Array.length w <> n_features) class_weights
      then invalid_arg "Runtime.load: SVM weight rows differ in length";
      P4_ir.Svm_votes
        {
          weights =
            Array.map
              (Array.mapi (fun f wf ->
                   int_of_float (Float.round (wf *. 65536. /. scales.(f)))))
              class_weights;
          biases =
            Array.map (fun b -> int_of_float (Float.round (b *. 65536.))) biases;
        }
  | Model_ir.Tree { root; _ } ->
      let rec rows = function
        | Decision_tree.Leaf { distribution } ->
            P4_ir.Leaf (Homunculus_util.Stats.argmax distribution)
        | Decision_tree.Split { feature; threshold; left; right } ->
            P4_ir.Split
              {
                feature;
                threshold = quantize_scaled scales.(feature) threshold;
                left = rows left;
                right = rows right;
              }
      in
      P4_ir.Tree_rows (rows root)

let entries ?(entries_per_feature = 64) ?calibration model =
  if entries_per_feature <= 0 then
    invalid_arg "Runtime.entries: entries_per_feature must be positive";
  let scales =
    choose_scales ~calibration ~n_features:(Model_ir.input_dim model)
  in
  {
    P4_ir.scales;
    tables = tables_of ~entries_per_feature ~calibration ~scales model;
  }

(* [lookup] reads keys and SVM weight rows unchecked up to [n_features],
   and a split's key by its feature index, so every shape must match the
   scales. *)
let of_entries { P4_ir.scales; tables } =
  let n_features = Array.length scales in
  let fit rows = Array.for_all (fun r -> Array.length r = n_features) rows in
  let rec tree_ok = function
    | P4_ir.Leaf cls -> cls >= 0
    | P4_ir.Split { feature; left; right; _ } ->
        feature >= 0 && feature < n_features && tree_ok left && tree_ok right
  in
  let ok =
    match tables with
    | P4_ir.Kmeans_cells { cells; centroids } ->
        Array.length cells = Array.length centroids && fit cells && fit centroids
    | P4_ir.Svm_votes { weights; biases } ->
        Array.length weights = Array.length biases && fit weights
    | P4_ir.Tree_rows root -> tree_ok root
  in
  if not ok then invalid_arg "Runtime.of_entries: tables do not fit the scales";
  { tables; n_features; scales = Array.copy scales; misses = 0 }

let load ?entries_per_feature ?calibration model =
  of_entries (entries ?entries_per_feature ?calibration model)

let feature_scales t = Array.copy t.scales

let check_input t x =
  if Array.length x <> t.n_features then
    invalid_arg "Runtime.classify: feature dimension mismatch"

(* ------------------------------------------------------------------ *)
(* Allocation-free hot path.

   The serving engine drains batches through [encode_into] + [lookup] on a
   per-engine [workspace]; none of the three may allocate in steady state
   (asserted by a [Gc.minor_words] test). Everything below is written as
   plain counted loops over pre-existing arrays: local [ref]s are compiled
   to mutable stack slots (they never escape), intermediate floats stay
   unboxed because they are consumed within the same function body, and
   [key] is inlined, so encoding a packet makes no C call. Each entry point
   checks the workspace length once; the per-feature loops then read the
   key buffer, the scales and the SVM weight rows unchecked, on the shapes
   [of_entries] checked. Every function on this path stays in this module: the dev
   profile compiles with -opaque, so nothing is inlined across modules. *)

type workspace = { keys : int array }

let make_workspace t = { keys = Array.make (max 1 t.n_features) 0 }

let workspace_keys ws = Array.copy ws.keys

let check_workspace t ws fn =
  if Array.length ws.keys < t.n_features then
    invalid_arg (fn ^ ": workspace from a different runtime")

let encode_into t ws x =
  check_input t x;
  check_workspace t ws "Runtime.encode_into";
  let scales = t.scales and keys = ws.keys in
  for f = 0 to t.n_features - 1 do
    Array.unsafe_set keys f
      (key (Array.unsafe_get x f *. Array.unsafe_get scales f))
  done

let lookup t ws =
  check_workspace t ws "Runtime.lookup";
  let keys = ws.keys in
  let nf = t.n_features in
  match t.tables with
  | P4_ir.Kmeans_cells { cells; centroids } ->
      (* TCAM priority semantics: the first cluster whose every per-feature
         range matches wins. *)
      let n = Array.length cells in
      let c = ref 0 and hit = ref (-1) in
      while !hit < 0 && !c < n do
        let cell = cells.(!c) in
        let ok = ref true and f = ref 0 in
        while !ok && !f < nf do
          let lo, hi = cell.(!f) in
          let key = Array.unsafe_get keys !f in
          if key < lo || key > hi then ok := false else incr f
        done;
        if !ok then hit := !c else incr c
      done;
      if !hit >= 0 then !hit
      else begin
        (* Default step: nearest quantized centroid. *)
        t.misses <- t.misses + 1;
        let best = ref 0 and best_d = ref max_int in
        for c = 0 to Array.length centroids - 1 do
          let centroid = centroids.(c) in
          let d = ref 0 in
          for f = 0 to nf - 1 do
            let delta = Array.unsafe_get keys f - centroid.(f) in
            d := !d + (delta * delta)
          done;
          if !d < !best_d then begin
            best := c;
            best_d := !d
          end
        done;
        !best
      end
  | P4_ir.Svm_votes { weights; biases } ->
      (* Running max over integer scores; ties keep the first maximal class,
         exactly like argmax over the materialized score array. *)
      let best = ref 0 and best_s = ref min_int in
      for c = 0 to Array.length weights - 1 do
        let w = weights.(c) in
        let acc = ref biases.(c) in
        for f = 0 to nf - 1 do
          acc := !acc + (Array.unsafe_get w f * Array.unsafe_get keys f)
        done;
        if !acc > !best_s then begin
          best := c;
          best_s := !acc
        end
      done;
      !best
  | P4_ir.Tree_rows root ->
      let node = ref root in
      let result = ref (-1) in
      while !result < 0 do
        match !node with
        | P4_ir.Leaf cls -> result := cls
        | P4_ir.Split { feature; threshold; left; right } ->
            node :=
              (if keys.(feature) <= threshold then left else right)
      done;
      !result

let classify_into t ws ~src ~n ~dst =
  if n < 0 || n > Array.length src || n > Array.length dst then
    invalid_arg "Runtime.classify_into: batch size out of bounds";
  for i = 0 to n - 1 do
    encode_into t ws src.(i);
    dst.(i) <- lookup t ws
  done

let classify t x =
  let ws = make_workspace t in
  encode_into t ws x;
  lookup t ws

let classify_all t xs = Array.map (classify t) xs

let miss_count t = t.misses

let fidelity t model ~x =
  if Array.length x = 0 then invalid_arg "Runtime.fidelity: empty input";
  let agree = ref 0 in
  Array.iter
    (fun sample ->
      if classify t sample = Inference.predict model sample then incr agree)
    x;
  float_of_int !agree /. float_of_int (Array.length x)
