(* E18 — compiled kernel vs reference: the closure-and-Hashtbl
   reference checkers against the compiled trie kernel (flat transition
   tables, schedule-prefix trie, per-(u, ops) evaluation memo), on the
   E9 refutation workload and the E11 census workload.  Emits
   machine-readable BENCH_e18.json (schema 2: one timing per mode,
   "reference" and "trie") alongside the printed section.

   The two modes decide identically — the refutation rows assert both
   refute, the census rows assert the histograms match — so every ratio
   below is pure implementation cost. *)

let time f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.now () -. t0)

let modes =
  [ ("reference", Kernel.Reference); ("trie", Kernel.Trie) ]

type row = {
  name : string;
  jobs : int;
  seconds : (string * float) list;  (* per mode label, same order as [modes] *)
  identical : bool;  (* all modes produced the same result *)
}

let speedup row =
  match (List.assoc_opt "reference" row.seconds, List.assoc_opt "trie" row.seconds) with
  | Some r, Some t when t > 0.0 -> r /. t
  | _ -> nan

(* Time [f pool mode] once per mode, each on a fresh pool of [jobs]
   domains; [describe] prints one result. *)
let per_mode ~jobs ~what ~describe f =
  List.split
    (List.map
       (fun (label, mode) ->
         Pool.with_pool ~jobs @@ fun pool ->
         let r, t = time (fun () -> f pool mode) in
         Printf.printf "  %s %-9s jobs=%d: %8.3fs%s\n%!" what label jobs t (describe r);
         (r, (label, t)))
       modes)

let all_equal = function [] -> true | x :: rest -> List.for_all (( = ) x) rest

(* The E9 engine workload: refuting 5-recording on the X_4 gap witness
   scans the entire candidate space — the decider's worst case and the
   fan-out's best case. *)
let refute_workload ~jobs =
  let results, seconds =
    per_mode ~jobs ~what:"refute 5-recording(x4)" ~describe:(fun _ -> "")
      (fun pool mode ->
        Engine.search ~config:(Api.Config.v ~kernel:mode ()) pool Decide.Recording
          Gallery.x4_witness ~n:5)
  in
  let identical = List.for_all Option.is_none results in
  { name = "e9-refute-5recording-x4"; jobs; seconds; identical }

(* The E11 workload: the full census of readable 3-value / 2-RMW /
   2-response tables at cap 4 — the sweep the kernel exists for. *)
let census_workload ~jobs =
  let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
  let runs, seconds =
    per_mode ~jobs ~what:"census {3,2,2} cap 4"
      ~describe:(fun r -> Printf.sprintf " (%d tables)" r.Engine.completed)
      (fun pool mode -> Engine.census ~config:(Api.Config.v ~cap:4 ~kernel:mode ()) pool space)
  in
  {
    name = "e11-census-v3-rw2-resp2-cap4";
    jobs;
    seconds;
    identical = all_equal (List.map (fun r -> r.Engine.entries) runs);
  }

let json_of_rows rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"bench\":\"e18\",\"schema\":2,\"workloads\":[";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "{\"name\":%S,\"jobs\":%d,\"seconds\":{" row.name row.jobs);
      List.iteri
        (fun j (label, t) ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "%S:%.6f" label t))
        row.seconds;
      Buffer.add_string b
        (Printf.sprintf "},\"speedup_trie_vs_reference\":%.3f,\"identical\":%b}"
           (speedup row) row.identical))
    rows;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let run ?(path = "BENCH_e18.json") () =
  let title = "E18 — compiled kernel vs reference: trie vs reference" in
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  let rows = [ refute_workload ~jobs:1; refute_workload ~jobs:4; census_workload ~jobs:4 ] in
  List.iter
    (fun row ->
      Printf.printf "%-30s jobs=%d: trie is %.2fx the reference (identical results: %b)\n"
        row.name row.jobs (speedup row) row.identical)
    rows;
  Out_channel.with_open_text path (fun oc -> output_string oc (json_of_rows rows));
  Printf.printf "wrote %s\n" path;
  rows
