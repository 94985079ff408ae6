from bench.run import main

raise SystemExit(main())
