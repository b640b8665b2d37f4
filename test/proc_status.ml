(* Readings from /proc/self/status, for the suites that check how much
   host memory a structure holds.  Callers test that the file exists
   first, and skip where it does not. *)

let vm_rss_kib () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> Alcotest.fail "no VmRSS line in /proc/self/status"
        | Some line -> (
          match Scanf.sscanf_opt line "VmRSS: %d kB" Fun.id with
          | Some kib -> kib
          | None -> scan ())
      in
      scan ())
