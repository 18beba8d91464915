(* Shared knobs for the reproduction harness. Set HOMUNCULUS_BENCH_FAST=1 to
   run a scaled-down sweep (smaller datasets, fewer BO iterations) for smoke
   testing; the default budget reproduces the paper-shaped results. *)

module Bo = Homunculus_bo
open Homunculus_core

let fast =
  match Sys.getenv_opt "HOMUNCULUS_BENCH_FAST" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let seed = 2023 (* ASPLOS'23 *)

let ad_train, ad_test = if fast then (1200, 500) else (3000, 1200)
let tc_train, tc_test = if fast then (1200, 500) else (3000, 1200)
let bd_train_flows, bd_test_flows = if fast then (120, 60) else (300, 120)

let search_options =
  let settings =
    if fast then
      {
        Bo.Optimizer.default_settings with
        Bo.Optimizer.n_init = 5;
        n_iter = 10;
        pool_size = 64;
      }
    else
      {
        Bo.Optimizer.default_settings with
        Bo.Optimizer.n_init = 10;
        n_iter = 30;
        pool_size = 150;
      }
  in
  { Compiler.default_options with Compiler.seed; bo_settings = settings }

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf fmt

(* Several experiments share BENCH_serve.json (loadgen owns the top level,
   serve owns the "autopilot" member); read-modify-write keeps whichever ran
   first intact regardless of order. *)
module Json = Homunculus_util.Json

let bench_members path =
  if Sys.file_exists path then
    try
      match
        Json.of_string (In_channel.with_open_text path In_channel.input_all)
      with
      | Json.Object members -> members
      | _ -> []
    with _ -> []
  else []

let bench_member ~path ~key = List.assoc_opt key (bench_members path)

let write_bench ~path members =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (Json.to_string ~pretty:true (Json.Object members));
      Out_channel.output_char oc '\n')

let set_bench_member ~path ~key value =
  write_bench ~path (List.remove_assoc key (bench_members path) @ [ (key, value) ])
