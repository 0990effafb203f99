"""Reference implementations the tests check the library against."""
