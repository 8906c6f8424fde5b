(* Standalone entry point for E18 (make bench-e18): times the trie
   kernel against the reference checkers, writes BENCH_e18.json, and
   fails loudly if the two modes disagree or the headline census
   speedup regresses below the 3x acceptance floor. *)

let () =
  let rows = Kernel_ablation.run () in
  List.iter
    (fun (row : Kernel_ablation.row) ->
      if not row.Kernel_ablation.identical then begin
        Printf.eprintf "e18: modes disagree on %s (jobs=%d)\n" row.Kernel_ablation.name
          row.Kernel_ablation.jobs;
        exit 1
      end)
    rows;
  match
    List.find_opt
      (fun (r : Kernel_ablation.row) ->
        r.Kernel_ablation.name = "e11-census-v3-rw2-resp2-cap4")
      rows
  with
  | Some census when Kernel_ablation.speedup census < 3.0 ->
      Printf.eprintf "e18: census speedup %.2fx is below the 3x floor\n"
        (Kernel_ablation.speedup census);
      exit 1
  | _ -> ()
