open Homunculus_util
module Bo = Homunculus_bo

let roundtrip t = Json.of_string (Json.to_string t)

let test_print_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int-like" "42" (Json.to_string (Json.Number 42.));
  Alcotest.(check string) "float" "0.5" (Json.to_string (Json.Number 0.5));
  Alcotest.(check string) "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_print_compact_vs_pretty () =
  let doc = Json.Object [ ("a", Json.List [ Json.Number 1.; Json.Number 2. ]) ] in
  Alcotest.(check string) "compact" "{\"a\":[1,2]}" (Json.to_string ~pretty:false doc);
  Alcotest.(check bool) "pretty has newlines" true
    (String.contains (Json.to_string doc) '\n')

let test_escapes_roundtrip () =
  let s = Json.String "line\nwith \"quotes\" and \\ tab\t" in
  Alcotest.(check bool) "escaped roundtrip" true (Json.equal s (roundtrip s))

let test_parse_basics () =
  Alcotest.(check bool) "null" true (Json.of_string " null " = Json.Null);
  Alcotest.(check bool) "number" true (Json.of_string "-2.5e2" = Json.Number (-250.));
  Alcotest.(check bool) "list" true
    (Json.of_string "[1, 2, 3]"
    = Json.List [ Json.Number 1.; Json.Number 2.; Json.Number 3. ]);
  Alcotest.(check bool) "empty containers" true
    (Json.of_string "[]" = Json.List [] && Json.of_string "{}" = Json.Object [])

let test_parse_nested () =
  let doc = {| {"a": {"b": [true, false, null]}, "c": "x"} |} in
  let v = Json.of_string doc in
  Alcotest.(check bool) "nested member" true
    (Json.member (Json.member v "a") "b"
    = Json.List [ Json.Bool true; Json.Bool false; Json.Null ])

let test_parse_unicode_escape () =
  Alcotest.(check bool) "ascii escape" true
    (Json.of_string {| "A" |} = Json.String "A")

let test_non_finite_numbers () =
  Alcotest.(check string) "nan prints" "NaN" (Json.to_string (Json.Number Float.nan));
  Alcotest.(check string) "inf prints" "Infinity"
    (Json.to_string (Json.Number Float.infinity));
  Alcotest.(check string) "-inf prints" "-Infinity"
    (Json.to_string (Json.Number Float.neg_infinity));
  Alcotest.(check bool) "nan parses" true
    (match Json.of_string "NaN" with
    | Json.Number v -> Float.is_nan v
    | _ -> false);
  Alcotest.(check bool) "inf parses" true
    (Json.of_string "Infinity" = Json.Number Float.infinity);
  Alcotest.(check bool) "-inf parses" true
    (Json.of_string "-Infinity" = Json.Number Float.neg_infinity);
  (* Inside containers, where the journal and lib/check artifacts put them. *)
  let doc = Json.Object [ ("loss", Json.Number Float.nan);
                          ("lat", Json.Number Float.infinity) ] in
  Alcotest.(check bool) "object roundtrip" true (Json.equal doc (roundtrip doc));
  (* "-Infinity" must not break ordinary negative numbers. *)
  Alcotest.(check bool) "negative number still parses" true
    (Json.of_string "[-1, -2.5]" = Json.List [ Json.Number (-1.); Json.Number (-2.5) ])

let test_parse_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (fails "1 2");
  Alcotest.(check bool) "unterminated string" true (fails "\"abc");
  Alcotest.(check bool) "bad literal" true (fails "nul");
  Alcotest.(check bool) "unclosed list" true (fails "[1, 2");
  Alcotest.(check bool) "missing colon" true (fails "{\"a\" 1}")

let test_accessors () =
  let doc = Json.of_string {| {"n": 3, "x": 1.5, "b": true, "s": "v", "l": [1]} |} in
  Alcotest.(check int) "to_int" 3 (Json.to_int (Json.member doc "n"));
  Alcotest.(check (float 0.)) "to_float" 1.5 (Json.to_float (Json.member doc "x"));
  Alcotest.(check bool) "to_bool" true (Json.to_bool (Json.member doc "b"));
  Alcotest.(check string) "get_string" "v" (Json.get_string (Json.member doc "s"));
  Alcotest.(check int) "to_list" 1 (List.length (Json.to_list (Json.member doc "l")));
  Alcotest.(check bool) "member_opt" true (Json.member_opt doc "zz" = None);
  Alcotest.check_raises "missing member"
    (Invalid_argument "Json.member: missing member \"zz\"") (fun () ->
      ignore (Json.member doc "zz"));
  Alcotest.check_raises "to_int non-integral"
    (Invalid_argument "Json.to_int: not an integer") (fun () ->
      ignore (Json.to_int (Json.member doc "x")))

let test_equal_object_order () =
  let a = Json.of_string {| {"x": 1, "y": 2} |} in
  let b = Json.of_string {| {"y": 2, "x": 1} |} in
  Alcotest.(check bool) "order-insensitive" true (Json.equal a b)

let json_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun f -> Json.Number (Float.of_int f)) (int_range (-1000) 1000);
                map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 8));
              ]
          in
          if n <= 0 then scalar
          else
            frequency
              [
                (2, scalar);
                (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) (self (n / 2))));
                ( 1,
                  map
                    (fun kvs ->
                      let rec dedup seen = function
                        | [] -> []
                        | (k, v) :: rest ->
                            if List.mem k seen then dedup seen rest
                            else (k, v) :: dedup (k :: seen) rest
                      in
                      Json.Object (dedup [] kvs))
                    (list_size (int_range 0 4)
                       (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 5))
                          (self (n / 2)))) );
              ])
        n)

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:300
    (QCheck.make json_gen)
    (fun doc -> Json.equal doc (roundtrip doc))

let prop_compact_roundtrip =
  QCheck.Test.make ~name:"compact print/parse roundtrip" ~count:300
    (QCheck.make json_gen)
    (fun doc -> Json.equal doc (Json.of_string (Json.to_string ~pretty:false doc)))

(* Any float — finite, subnormal, or non-finite — must survive a print/parse
   cycle exactly; this is what lets the search journal record diverged
   (NaN-loss) evaluations. *)
let float_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.float;
      QCheck.Gen.oneofl
        [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.;
          Float.min_float; Float.max_float; 1e-310 (* subnormal *) ];
    ]

let prop_number_roundtrip =
  QCheck.Test.make ~name:"number roundtrip incl. non-finite" ~count:500
    (QCheck.make float_gen) (fun v ->
      match roundtrip (Json.Number v) with
      | Json.Number back ->
          (* identical bits up to NaN payload: Float.equal is nan-reflexive *)
          Float.equal back v
      | _ -> false)

(* Serialize: HyperMapper schema *)

let space =
  Bo.Design_space.create
    [
      Bo.Param.int "n_layers" ~lo:1 ~hi:10;
      Bo.Param.real ~log_scale:true "learning_rate" ~lo:1e-4 ~hi:1e-1;
      Bo.Param.ordinal "batch_size" [| 16.; 32.; 64. |];
      Bo.Param.categorical "activation" [| "relu"; "tanh" |];
    ]

let test_scenario_shape () =
  let doc =
    Bo.Serialize.scenario_to_json ~application_name:"anomaly_detection"
      ~objectives:[ "f1" ] space
  in
  Alcotest.(check string) "app name" "anomaly_detection"
    (Json.get_string (Json.member doc "application_name"));
  let params = Json.member doc "input_parameters" in
  let lr = Json.member params "learning_rate" in
  Alcotest.(check string) "log transform" "log"
    (Json.get_string (Json.member lr "transform"));
  Alcotest.(check string) "rf surrogate" "random_forest"
    (Json.get_string (Json.member (Json.member doc "models") "model"))

let test_space_roundtrip () =
  let doc = Bo.Serialize.design_space_to_json space in
  let back = Bo.Serialize.design_space_of_json doc in
  Alcotest.(check int) "same dim" (Bo.Design_space.dim space) (Bo.Design_space.dim back);
  (* Sampling from the parsed space produces configs valid in the original. *)
  let rng = Homunculus_util.Rng.create 1 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "interchangeable" true
      (Bo.Design_space.validate space (Bo.Design_space.sample rng back))
  done

let test_space_roundtrip_through_text () =
  let text = Json.to_string (Bo.Serialize.design_space_to_json space) in
  let back = Bo.Serialize.design_space_of_json (Json.of_string text) in
  Alcotest.(check bool) "textual roundtrip" true
    (Json.equal
       (Bo.Serialize.design_space_to_json space)
       (Bo.Serialize.design_space_to_json back))

let test_config_roundtrip () =
  let rng = Homunculus_util.Rng.create 2 in
  for _ = 1 to 50 do
    let c = Bo.Design_space.sample rng space in
    let back = Bo.Serialize.config_of_json space (Bo.Serialize.config_to_json space c) in
    Alcotest.(check bool) "config equal" true (Bo.Config.equal c back)
  done

let test_config_of_json_validates () =
  let doc = Json.of_string {| {"n_layers": 99, "learning_rate": 0.01,
                               "batch_size": 32, "activation": "relu"} |} in
  Alcotest.check_raises "out of domain"
    (Invalid_argument "Serialize: configuration outside the design space")
    (fun () -> ignore (Bo.Serialize.config_of_json space doc))

let test_history_roundtrip () =
  let rng = Homunculus_util.Rng.create 3 in
  let h = Bo.History.create () in
  for i = 1 to 10 do
    Bo.History.add h
      ~config:(Bo.Design_space.sample rng space)
      ~objective:(0.1 *. float_of_int i)
      ~feasible:(i mod 2 = 0) ()
  done;
  let back = Bo.Serialize.history_of_json space (Bo.Serialize.history_to_json space h) in
  Alcotest.(check int) "length" 10 (Bo.History.length back);
  Alcotest.(check (array (float 1e-9))) "same regret curve"
    (Bo.History.best_so_far h) (Bo.History.best_so_far back)

let suite =
  [
    Alcotest.test_case "print scalars" `Quick test_print_scalars;
    Alcotest.test_case "compact vs pretty" `Quick test_print_compact_vs_pretty;
    Alcotest.test_case "escapes roundtrip" `Quick test_escapes_roundtrip;
    Alcotest.test_case "parse basics" `Quick test_parse_basics;
    Alcotest.test_case "parse nested" `Quick test_parse_nested;
    Alcotest.test_case "parse unicode" `Quick test_parse_unicode_escape;
    Alcotest.test_case "non-finite numbers" `Quick test_non_finite_numbers;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "object equality" `Quick test_equal_object_order;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_compact_roundtrip;
    QCheck_alcotest.to_alcotest prop_number_roundtrip;
    Alcotest.test_case "scenario shape" `Quick test_scenario_shape;
    Alcotest.test_case "space roundtrip" `Quick test_space_roundtrip;
    Alcotest.test_case "space textual roundtrip" `Quick test_space_roundtrip_through_text;
    Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
    Alcotest.test_case "config validation" `Quick test_config_of_json_validates;
    Alcotest.test_case "history roundtrip" `Quick test_history_roundtrip;
  ]
