from hypothesis import settings

# Example timings vary with machine load and BLAS threads; wall-clock
# deadlines would flag that as a slow example.
settings.register_profile("winpca", deadline=None, max_examples=60)
settings.load_profile("winpca")
