(* Successive-halving rung pruning in the DSE: the epoch budget a pruned
   search spends against an unpruned one on the AD workload, and whether the
   pruned search still reaches a fixed quality floor. Epochs are counted,
   not timed (speed is perfbench's to measure), so two runs write the same
   BENCH_train.json bytes. The process exits 1 with a FAIL line on stderr
   when the floor is missed. *)

open Homunculus_alchemy
open Homunculus_core
module Bo = Homunculus_bo
module Json = Homunculus_util.Json

(* The rung settings the pruned-DSE comparison runs under: a three-rung
   ladder starting earlier than the library default (successive halving pays
   mostly at the first rung — losers stopped at 15% of their budget instead
   of 25%), so the saving is visible even at smoke-test budgets. *)
let asha_settings =
  {
    Bo.Asha.rung_fractions = [| 0.15; 0.35; 0.6 |];
    keep_frac = 0.4;
    min_observations = 3;
  }

let epochs_of_history history =
  List.fold_left
    (fun acc e ->
      acc
      + int_of_float
          (Option.value
             (List.assoc_opt "epochs_trained" e.Bo.History.metadata)
             ~default:0.))
    0
    (Bo.History.entries history)

let pruned_count history =
  List.length
    (List.filter (fun e -> e.Bo.History.pruned) (Bo.History.entries history))

let dse_run ~prune =
  let options =
    {
      Bench_config.search_options with
      Compiler.emit_code = false;
      prune = (if prune then Some asha_settings else None);
    }
  in
  let r = Compiler.search_model ~options (Platform.taurus ()) (Apps.ad_spec ()) in
  let sum f = List.fold_left (fun acc (_, h) -> acc + f h) 0 r.Compiler.histories in
  (r.Compiler.artifact.Evaluator.objective, sum epochs_of_history, sum pruned_count)

let run () =
  Bench_config.section "Training: DSE epoch budget with rung pruning";
  (* DSE epoch budget with vs without pruning, at a fixed quality floor: the
     pruned search must reach 99% of the unpruned search's best objective.
     (The two runs share seed and budget but diverge in exploration once the
     histories differ, so exact equality is not the bar — matched quality at
     a fraction of the epoch budget is.) *)
  let quality_floor = 0.99 in
  let best_full, epochs_full, _ = dse_run ~prune:false in
  let best_pruned, epochs_pruned, n_pruned = dse_run ~prune:true in
  let ratio = float_of_int epochs_pruned /. float_of_int epochs_full in
  let floor_met = best_pruned >= quality_floor *. best_full in
  Printf.printf
    "  DSE (AD): full %d epochs -> best %.4f; pruned %d epochs (%.0f%%, %d \
     candidates stopped) -> best %.4f, %s\n"
    epochs_full best_full epochs_pruned (100. *. ratio) n_pruned best_pruned
    (if floor_met then "above the 99% quality floor"
     else "BELOW the 99% quality floor");
  let json =
    Json.Object
      [
        ("bench", Json.String "train");
        ("fast", Json.Bool Bench_config.fast);
        ( "dse",
          Json.Object
            [
              ("best_full", Json.Number best_full);
              ("best_pruned", Json.Number best_pruned);
              ("quality_floor", Json.Number quality_floor);
              ("floor_met", Json.Bool floor_met);
              ("epochs_full", Json.Number (float_of_int epochs_full));
              ("epochs_pruned", Json.Number (float_of_int epochs_pruned));
              ("epoch_ratio", Json.Number ratio);
              ("candidates_pruned", Json.Number (float_of_int n_pruned));
            ] );
      ]
  in
  Out_channel.with_open_text "BENCH_train.json" (fun oc ->
      Out_channel.output_string oc (Json.to_string json);
      Out_channel.output_char oc '\n');
  Bench_config.note "  wrote BENCH_train.json\n";
  if not floor_met then begin
    Printf.eprintf
      "FAIL: the pruned search's best %.4f is below %.0f%% of the unpruned \
       best %.4f\n"
      best_pruned (100. *. quality_floor) best_full;
    exit 1
  end
