(* [Fcsl_core.Json] under this library's name.  Only the repository
   benchmark under perfbench/ still reaches JSON through the service
   library; that directory changes only together with its recorded
   baseline, so this alias stays until the next benchmark change.
   Everything else uses the core module. *)
include Fcsl_core.Json
