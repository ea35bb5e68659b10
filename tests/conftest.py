import hypothesis

# exact rational arithmetic has uneven per-example cost; wall-clock
# deadlines just make the suite flaky.  A failing example prints the blob
# that reproduces it (@reproduce_failure), so a CI failure can be rerun.
hypothesis.settings.register_profile("exact", deadline=None, print_blob=True)
hypothesis.settings.load_profile("exact")
